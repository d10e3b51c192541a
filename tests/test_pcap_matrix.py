"""pcap export and the full-matrix driver."""

import struct

import pytest

from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.matrix import CSV_HEADERS, run_matrix
from repro.netsim.pcap import PCAP_MAGIC, read_pcap_summary, write_pcap
from repro.netsim.trace import FlowTrace

QUICK = ExperimentConfig(duration_s=10.0, trials=2)
CONDITION = NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=1)


def make_trace(n=20):
    trace = FlowTrace(3, label="x")
    for i in range(n):
        trace.on_delivery(1.0 + i * 0.01, 1.0 + i * 0.01 - 0.02, i, 1200, i == 5)
    return trace


class TestPcap:
    def test_round_trip_summary(self, tmp_path):
        path = str(tmp_path / "flow.pcap")
        count = write_pcap(make_trace(), path)
        assert count == 20
        summary = read_pcap_summary(path)
        assert summary["packets"] == 20
        assert summary["retransmissions"] == 1
        assert summary["duration_s"] == pytest.approx(0.19, abs=0.01)
        assert summary["throughput_bps"] > 0

    def test_global_header_magic_and_linktype(self, tmp_path):
        path = str(tmp_path / "flow.pcap")
        write_pcap(make_trace(2), path)
        with open(path, "rb") as f:
            header = f.read(24)
        magic, major, minor, _, _, snaplen, linktype = struct.unpack(
            "!IHHiIII", header
        )
        assert magic == PCAP_MAGIC
        assert (major, minor) == (2, 4)
        assert linktype == 1  # Ethernet

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.pcap")
        assert write_pcap(FlowTrace(0), path) == 0
        summary = read_pcap_summary(path)
        assert summary["packets"] == 0

    def test_rejects_non_pcap(self, tmp_path):
        path = tmp_path / "bogus.pcap"
        path.write_bytes(b"\x00" * 40)
        with pytest.raises(ValueError):
            read_pcap_summary(str(path))

    def test_ipv4_checksum_valid(self, tmp_path):
        path = str(tmp_path / "flow.pcap")
        write_pcap(make_trace(1), path)
        with open(path, "rb") as f:
            f.read(24 + 16)  # headers
            frame = f.read(14 + 20)
        ip_header = frame[14:]
        # Recomputing the checksum over the header must give zero.
        total = 0
        for i in range(0, 20, 2):
            total += (ip_header[i] << 8) + ip_header[i + 1]
        while total > 0xFFFF:
            total = (total & 0xFFFF) + (total >> 16)
        assert total == 0xFFFF

    def test_simulated_flow_exports(self, tmp_path):
        from repro.harness.runner import Impl, reference_impl, run_pair

        result = run_pair(
            Impl("quicgo", "cubic"), reference_impl("cubic"), CONDITION, 5.0, seed=1
        )
        path = str(tmp_path / "sim.pcap")
        count = write_pcap(result.first.trace, path)
        assert count > 100
        summary = read_pcap_summary(path)
        assert summary["throughput_bps"] == pytest.approx(
            result.first.trace.mean_throughput_bps(), rel=0.05
        )


class TestMatrix:
    def test_small_matrix(self, fresh_executor):
        conditions = [
            NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=1),
            NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=3),
        ]
        seen = []
        result = run_matrix(
            conditions=conditions,
            implementations=[("quicgo", "cubic"), ("quicgo", "reno")],
            config=QUICK,
            executor=fresh_executor,
            progress=seen.append,
        )
        assert len(result.measurements) == 4
        assert len(seen) == 4
        rows = result.rows()
        assert len(rows) == 4 and len(rows[0]) == len(CSV_HEADERS)

    def test_csv_export(self, tmp_path, fresh_executor):
        result = run_matrix(
            conditions=[CONDITION],
            implementations=[("quicgo", "reno")],
            config=QUICK,
            executor=fresh_executor,
        )
        path = tmp_path / "matrix.csv"
        result.save_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].split(",")[:3] == ["stack", "cca", "variant"]
        assert len(lines) == 2

    def test_cell_lookup_and_worst(self, fresh_executor):
        result = run_matrix(
            conditions=[CONDITION],
            implementations=[("quicgo", "reno"), ("neqo", "cubic")],
            config=QUICK,
            executor=fresh_executor,
        )
        cell = result.cell("quicgo", "reno", CONDITION)
        assert cell is not None and cell.impl.stack == "quicgo"
        assert result.cell("quicgo", "reno", NetworkCondition(99, 1, 1)) is None
        worst = result.worst_cells(1)[0]
        assert worst.conformance == min(m.conformance for m in result.measurements)
