"""qlog export and AQM queue disciplines."""

import pytest

from repro.netsim.aqm import CoDelQueue, REDQueue, make_queue
from repro.netsim.link import DropTailQueue
from repro.netsim.packet import Packet
from repro.netsim.qlog import load_qlog, trace_to_qlog, write_qlog
from repro.netsim.trace import FlowTrace


def make_trace():
    trace = FlowTrace(0, label="flow")
    for i in range(5):
        trace.on_delivery(0.1 * i, 0.1 * i - 0.02, i, 1200, i == 3)
    trace.on_loss(0.25, 9)
    trace.on_cwnd(0.0, 14480)
    trace.on_cwnd(0.2, 28960)
    trace.on_rate(0.1, 2.5e6)
    return trace


class TestQlog:
    def test_document_structure(self):
        doc = trace_to_qlog(make_trace())
        assert doc["qlog_version"]
        events = doc["traces"][0]["events"]
        names = {e["name"] for e in events}
        assert "transport:packet_received" in names
        assert "recovery:packet_lost" in names
        assert "recovery:metrics_updated" in names
        times = [e["time"] for e in events]
        assert times == sorted(times)

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "flow.qlog")
        write_qlog(make_trace(), path, title="t")
        summary = load_qlog(path)
        assert summary.title == "t"
        assert summary.packets_received == 5
        assert summary.packets_lost == 1
        assert summary.cwnd_updates == 2
        assert 0 < summary.loss_rate < 1

    def test_pacing_rate_in_bits(self):
        doc = trace_to_qlog(make_trace())
        rates = [
            e["data"]["pacing_rate"]
            for e in doc["traces"][0]["events"]
            if "pacing_rate" in e.get("data", {})
        ]
        assert rates == [int(2.5e6 * 8)]

    def test_load_rejects_non_qlog(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_qlog(str(path))


def pkt(seq=0, size=1000):
    return Packet(flow_id=0, seq=seq, size=size, sent_time=0.0)


class TestRED:
    def test_no_early_drops_when_queue_short(self):
        q = REDQueue(100_000)
        for i in range(5):
            assert q.offer(pkt(i))
        assert q.early_drops == 0

    def test_early_drops_appear_under_sustained_load(self):
        q = REDQueue(20_000, max_p=0.5)
        accepted = 0
        for i in range(2000):
            if q.offer(pkt(i)):
                accepted += 1
                if len(q) > 10:
                    q.pop()
        assert q.early_drops > 0
        assert accepted > 0

    def test_hard_drop_at_capacity(self):
        q = REDQueue(2000)
        q.offer(pkt(0))
        q.offer(pkt(1))
        assert not q.offer(pkt(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            REDQueue(0)
        with pytest.raises(ValueError):
            REDQueue(1000, min_thresh_fraction=0.8, max_thresh_fraction=0.5)
        with pytest.raises(ValueError):
            REDQueue(1000, max_p=0)


class TestCoDel:
    def test_passes_packets_under_low_delay(self):
        now = [0.0]
        q = CoDelQueue(100_000, clock=lambda: now[0])
        q.offer(pkt(0))
        now[0] += 0.001  # sojourn below target
        assert q.pop().seq == 0
        assert q.early_drops == 0

    def test_drops_when_sojourn_stays_above_target(self):
        now = [0.0]
        q = CoDelQueue(1_000_000, clock=lambda: now[0])
        # Sustained standing queue: enqueue faster than dequeue.
        seq = 0
        for step in range(400):
            for _ in range(3):
                q.offer(pkt(seq))
                seq += 1
            now[0] += 0.01
            q.pop()
        assert q.early_drops > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CoDelQueue(0, clock=lambda: 0.0)
        with pytest.raises(ValueError):
            CoDelQueue(1000, clock=lambda: 0.0, target_s=0)


class TestFactory:
    def test_disciplines(self):
        assert isinstance(make_queue("droptail", 1000, lambda: 0.0), DropTailQueue)
        assert isinstance(make_queue("red", 1000, lambda: 0.0), REDQueue)
        assert isinstance(make_queue("codel", 1000, lambda: 0.0), CoDelQueue)
        with pytest.raises(ValueError):
            make_queue("fq", 1000, lambda: 0.0)

    def test_network_runs_with_each_discipline(self):
        from repro.cca import NewReno
        from repro.netsim.network import FlowSpec, LinkConfig, Network

        for discipline in ("droptail", "red", "codel"):
            link = LinkConfig(
                bandwidth_bps=10e6, rtt_s=0.02, buffer_bdp=1.0,
                queue_discipline=discipline,
            )
            results = Network(
                link, [FlowSpec(label="a", cca_factory=lambda: NewReno(1448))],
                seed=1,
            ).run(5.0)
            assert results[0].mean_throughput_bps > 5e6, discipline

    def test_invalid_discipline_in_config(self):
        from repro.netsim.network import LinkConfig

        with pytest.raises(ValueError):
            LinkConfig(queue_discipline="fq").validate()
