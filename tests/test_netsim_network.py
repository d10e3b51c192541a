"""Dumbbell wiring: flows, cross traffic, determinism."""

import pytest

from repro.cca import NewReno
from repro.netsim import (
    CrossTrafficConfig,
    FlowSpec,
    LinkConfig,
    Network,
)


def reno_flow(label, **kwargs):
    return FlowSpec(label=label, cca_factory=lambda: NewReno(1448), **kwargs)


LINK = LinkConfig(bandwidth_bps=10e6, rtt_s=0.02, buffer_bdp=1.0)


def test_single_flow_fills_link():
    results = Network(LINK, [reno_flow("solo")], seed=1).run(10.0)
    assert results[0].mean_throughput_bps == pytest.approx(10e6, rel=0.08)


def test_two_flows_share_link():
    results = Network(
        LINK,
        [reno_flow("a"), reno_flow("b")],
        seed=1,
        base_jitter_s=0.0004,
    ).run(15.0)
    total = sum(r.mean_throughput_bps for r in results)
    assert total == pytest.approx(10e6, rel=0.10)
    shares = [r.mean_throughput_bps / total for r in results]
    assert 0.25 < shares[0] < 0.75


def test_same_seed_is_deterministic():
    a = Network(LINK, [reno_flow("a"), reno_flow("b")], seed=7).run(5.0)
    b = Network(LINK, [reno_flow("a"), reno_flow("b")], seed=7).run(5.0)
    assert a[0].mean_throughput_bps == b[0].mean_throughput_bps
    assert a[0].packets_sent == b[0].packets_sent


def test_different_seeds_differ_with_jitter():
    a = Network(
        LINK, [reno_flow("a"), reno_flow("b")], seed=1, base_jitter_s=0.0004
    ).run(5.0)
    b = Network(
        LINK, [reno_flow("a"), reno_flow("b")], seed=2, base_jitter_s=0.0004
    ).run(5.0)
    assert a[0].packets_sent != b[0].packets_sent


def test_flow_rtt_matches_configuration():
    results = Network(LINK, [reno_flow("solo")], seed=1).run(5.0)
    trace = results[0].trace
    min_owd = min(r.one_way_delay for r in trace.records)
    # One-way delay >= propagation (10 ms) and bounded by queue (+20 ms).
    assert 0.009 < min_owd < 0.013


def test_extra_delay_applies_per_flow():
    flows = [reno_flow("near"), reno_flow("far", extra_delay_s=0.02)]
    results = Network(LINK, flows, seed=1).run(5.0)
    near = min(r.one_way_delay for r in results[0].trace.records)
    far = min(r.one_way_delay for r in results[1].trace.records)
    assert far - near == pytest.approx(0.02, abs=0.005)


def test_start_time_honored():
    flows = [reno_flow("early"), reno_flow("late", start_time=3.0)]
    results = Network(LINK, flows, seed=1).run(6.0)
    first_late = results[1].trace.records[0].arrival_time
    assert first_late >= 3.0


def test_start_spread_randomizes_starts():
    flows = [reno_flow("a"), reno_flow("b")]
    results = Network(LINK, flows, seed=9, start_spread_s=0.5).run(5.0)
    starts = [r.trace.records[0].sent_time for r in results]
    assert starts[0] != starts[1]


def test_cross_traffic_takes_bandwidth():
    cross = CrossTrafficConfig(rate_bps=4e6, mean_on_s=10.0, mean_off_s=0.001)
    solo = Network(LINK, [reno_flow("solo")], seed=3).run(10.0)
    with_cross = Network(
        LINK, [reno_flow("solo")], seed=3, cross_traffic=cross
    ).run(10.0)
    assert (
        with_cross[0].mean_throughput_bps
        < solo[0].mean_throughput_bps - 1e6
    )


def test_drop_accounting_per_flow():
    net = Network(
        LinkConfig(bandwidth_bps=5e6, rtt_s=0.02, buffer_bdp=0.5),
        [reno_flow("a"), reno_flow("b")],
        seed=1,
        base_jitter_s=0.0004,
    )
    net.run(10.0)
    assert sum(net.drops_by_flow.values()) > 0


def test_requires_at_least_one_flow():
    with pytest.raises(ValueError):
        Network(LINK, [])


def test_link_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(bandwidth_bps=0).validate()
    with pytest.raises(ValueError):
        LinkConfig(rtt_s=0).validate()
    assert LinkConfig(buffer_bytes=5000).queue_capacity() == 5000
    # Tiny BDP fractions still fit a few packets.
    tiny = LinkConfig(bandwidth_bps=1e6, rtt_s=0.001, buffer_bdp=0.5)
    assert tiny.queue_capacity() >= 3 * 1500
