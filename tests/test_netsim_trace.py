"""FlowTrace recording, summaries and round-tripping."""

import numpy as np
import pytest

from repro.netsim.trace import FlowTrace, merge_traces


def build_trace():
    trace = FlowTrace(0, label="test")
    for i in range(10):
        trace.on_delivery(
            arrival_time=1.0 + i * 0.1,
            sent_time=1.0 + i * 0.1 - 0.02,
            seq=i,
            payload_bytes=1000,
            is_retransmission=(i == 5),
        )
    trace.on_loss(1.55, 99)
    trace.on_cwnd(1.0, 14480)
    trace.on_rate(1.0, 2e6)
    return trace


def test_totals_and_duration():
    trace = build_trace()
    assert trace.total_bytes == 10000
    assert trace.duration == pytest.approx(0.9)


def test_mean_throughput():
    trace = build_trace()
    assert trace.mean_throughput_bps() == pytest.approx(10000 * 8 / 0.9)


def test_mean_one_way_delay():
    trace = build_trace()
    assert trace.mean_one_way_delay() == pytest.approx(0.02)


def test_empty_trace_is_safe():
    trace = FlowTrace(1)
    assert trace.total_bytes == 0
    assert trace.duration == 0.0
    assert trace.mean_throughput_bps() == 0.0
    assert trace.mean_one_way_delay() == 0.0


def test_json_round_trip(tmp_path):
    trace = build_trace()
    path = tmp_path / "trace.json"
    trace.to_json(str(path))
    loaded = FlowTrace.from_json(str(path))
    assert loaded.flow_id == trace.flow_id
    assert loaded.label == trace.label
    assert loaded.records == trace.records
    assert loaded.losses == trace.losses
    assert loaded.cwnd_samples == [(1.0, 14480)]


def test_csv_export(tmp_path):
    trace = build_trace()
    path = tmp_path / "trace.csv"
    trace.to_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 11  # header + 10 records
    assert lines[0].startswith("arrival_time")


def test_merge_traces_sorted_by_arrival():
    a = FlowTrace(0)
    b = FlowTrace(1)
    a.on_delivery(2.0, 1.9, 0, 100, False)
    b.on_delivery(1.0, 0.9, 0, 100, False)
    a.on_delivery(3.0, 2.9, 1, 100, False)
    merged = merge_traces([a, b])
    assert [r.arrival_time for r in merged] == [1.0, 2.0, 3.0]


def simulated_trace():
    from repro.netsim.network import LinkConfig, Network
    from repro.stacks import registry

    flows = [registry.get_stack("linux").flow_spec("bbr"),
             registry.get_stack("quiche").flow_spec("cubic")]
    network = Network(LinkConfig(bandwidth_bps=10e6, rtt_s=0.02, buffer_bdp=1.0),
                      flows, seed=3, base_jitter_s=0.25e-3, start_spread_s=0.2)
    return network.run(2.0)[0].trace


def test_json_round_trip_reproduces_every_field(tmp_path):
    trace = simulated_trace()
    assert trace.records and trace.losses and trace.cwnd_samples and trace.rate_samples
    path = tmp_path / "sim.json"
    trace.to_json(str(path))
    loaded = FlowTrace.from_json(str(path))
    assert (loaded.flow_id, loaded.label) == (trace.flow_id, trace.label)
    assert len(loaded.records) == len(trace.records)
    fields = ("arrival_time", "sent_time", "seq", "payload_bytes",
              "one_way_delay", "is_retransmission")
    for got, want in zip(loaded.records, trace.records):
        assert got == want
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
        assert type(got.is_retransmission) is bool
    assert [(l.time, l.seq) for l in loaded.losses] == [(l.time, l.seq) for l in trace.losses]
    assert loaded.cwnd_samples == trace.cwnd_samples
    assert loaded.rate_samples == trace.rate_samples
    assert loaded.total_bytes == trace.total_bytes


def test_csv_export_matches_records(tmp_path):
    import csv

    trace = simulated_trace()
    path = tmp_path / "sim.csv"
    trace.to_csv(str(path))
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(trace.records)
    for row, r in zip(rows, trace.records):
        assert float(row["arrival_time"]) == r.arrival_time
        assert float(row["sent_time"]) == r.sent_time
        assert int(row["seq"]) == r.seq
        assert int(row["payload_bytes"]) == r.payload_bytes
        assert float(row["one_way_delay"]) == r.one_way_delay
        assert int(row["is_retransmission"]) == int(r.is_retransmission)


def test_merge_traces_keeps_every_record_of_a_simulation():
    trace = simulated_trace()
    other = build_trace()
    merged = merge_traces([trace, other])
    assert len(merged) == len(trace.records) + len(other.records)
    times = [r.arrival_time for r in merged]
    assert times == sorted(times)
    assert set(map(id, merged)) == set(map(id, trace.records + other.records))
