"""Golden simulator digests: the simulator's output, pinned bit for bit.

Each scenario runs a short trial and hashes everything a campaign later
reads from it, for every flow: the delivery records, the loss events,
the cwnd and pacing-rate samples, the sender counters and the bytes of
the ``sample_points`` cloud.  Floats enter the hash through ``repr``,
which round-trips exactly, so any change to event order or arithmetic
changes the digest.

The pinned values are a contract: a change to the engine, the links or
the endpoints that is meant to be a pure speedup must leave every one of
them untouched.  A change that alters simulated behaviour on purpose must
say so and re-pin them.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.core.sampling import sample_points
from repro.harness.config import NetworkCondition
from repro.harness.runner import Impl, run_pair
from repro.netsim.crosstraffic import CrossTrafficConfig
from repro.netsim.network import LinkConfig, Network
from repro.netsim.path import NetemConfig
from repro.stacks import registry
from repro.topo import TopoNetwork, parking_lot, parse_topology_spec

WAN = NetemConfig(jitter_s=0.002, loss_rate=0.005, reorder_rate=0.01, reorder_extra_s=0.004)


def _kernel_vs_quiche_droptail():
    """tcp (kernel) vs quic loss styles; quiche's spurious undo."""
    condition = NetworkCondition(bandwidth_mbps=20, rtt_ms=20, buffer_bdp=1)
    result = run_pair(
        Impl("linux", "cubic"), Impl("quiche", "cubic"), condition,
        duration_s=4.0, seed=11,
    )
    return [result.first, result.second], None, condition.rtt_s


def _bbr_vs_paced_quantized_fq_codel():
    """BBR pacing vs a window CCA the stack paces on a quantized send timer."""
    bbr = registry.get_stack("linux").flow_spec("bbr", label="linux-bbr")
    cubic = registry.get_stack("xquic").flow_spec("cubic", label="xquic-cubic-paced")
    cubic.sender_config = replace(
        cubic.sender_config, send_timer_granularity=0.002, pace_window_ccas=True
    )
    link = LinkConfig(bandwidth_bps=20e6, rtt_s=0.02, buffer_bdp=2.0,
                      queue_discipline="fq_codel")
    network = Network(link, [bbr, cubic], seed=12, base_jitter_s=0.25e-3,
                      start_spread_s=0.5)
    return network.run(4.0), network, link.rtt_s


def _wan_codel_cross_traffic():
    """netem jitter, loss and reorder plus on/off cross traffic, CoDel queue."""
    kernel = registry.get_stack("linux").flow_spec("cubic", label="linux-cubic")
    quiche = registry.get_stack("quiche").flow_spec("cubic", label="quiche-cubic")
    kernel.forward_netem = WAN
    quiche.forward_netem = WAN
    link = LinkConfig(bandwidth_bps=20e6, rtt_s=0.03, buffer_bdp=3.0,
                      queue_discipline="codel")
    network = Network(
        link, [kernel, quiche], seed=13,
        cross_traffic=CrossTrafficConfig(rate_bps=4e6, mean_on_s=0.3, mean_off_s=0.5),
        base_jitter_s=0.25e-3, start_spread_s=0.5,
    )
    return network.run(4.0), network, link.rtt_s


def _parking_lot():
    """Multi-bottleneck TopoNetwork: one long flow, one cross flow per hop."""
    network = TopoNetwork(parking_lot("cubic", ("linux", "quiche")), seed=14,
                          base_jitter_s=0.25e-3)
    return network.run(3.0), network, 0.048


def _chain_25ms_forward_and_reverse():
    """Three 25 ms hops, one flow each way: the return path sums the route."""
    spec = parse_topology_spec({
        "name": "chain-25ms",
        "links": [
            {"name": "hop1", "bandwidth_mbps": 16, "delay_ms": 25},
            {"name": "hop2", "bandwidth_mbps": 12, "delay_ms": 25},
            {"name": "hop3", "bandwidth_mbps": 16, "delay_ms": 25},
        ],
        "flows": [
            {"label": "forward-linux-cubic", "stack": "linux", "cca": "cubic"},
            {"label": "reverse-quiche-cubic", "stack": "quiche", "cca": "cubic",
             "direction": "reverse"},
        ],
        "start_spread_s": 0.5,
    })
    network = TopoNetwork(spec, seed=15, base_jitter_s=0.25e-3)
    return network.run(4.0), network, 0.15


def _finite_flows_rto_backoff():
    """30% forward loss on finite flows: 9 RTOs, two in a row (back-off),
    and both flows complete."""
    specs = []
    for stack in ("linux", "quiche"):
        spec = registry.get_stack(stack).flow_spec("cubic", label=f"{stack}-cubic")
        spec.sender_config = replace(spec.sender_config, total_bytes=300_000)
        spec.forward_netem = NetemConfig(loss_rate=0.3)
        specs.append(spec)
    link = LinkConfig(5e6, 0.04, buffer_bdp=0.5)
    network = Network(link, specs, seed=1, start_spread_s=0.2)
    return network.run(10.0), network, link.rtt_s


SCENARIOS = {
    "kernel-vs-quiche-droptail": _kernel_vs_quiche_droptail,
    "bbr-vs-paced-quantized-fq_codel": _bbr_vs_paced_quantized_fq_codel,
    "wan-codel-cross-traffic": _wan_codel_cross_traffic,
    "parking-lot": _parking_lot,
    "chain-25ms-forward-and-reverse": _chain_25ms_forward_and_reverse,
    "finite-flows-rto-backoff": _finite_flows_rto_backoff,
}

GOLDEN = {
    "kernel-vs-quiche-droptail":
        "76f71f43589134dce3a5b45f5063540b78dc206283df53594333d823300e3e7b",
    "bbr-vs-paced-quantized-fq_codel":
        "20b35371dbcfc8c060f3d42ed3c93fbb2b66ac01c0d79d2f3ceaac056e603eb2",
    "wan-codel-cross-traffic":
        "dae0780486556222c7d0b83341361b0fa30cb0cb49906fb6bb28f38a19daa0e9",
    "parking-lot":
        "bda993f809f645366540d57af0bc39fcb88a5af25cf7e7501bb1f38d2c985d77",
    "chain-25ms-forward-and-reverse":
        "19e384c2b17888635af93994534bb20348dcefa4052bc80a610690969688ec71",
    "finite-flows-rto-backoff":
        "65edf3c0876e7d06209b514a4ad54f10794035b7ced2ec5602abfef6c6119e68",
}


def _update(h, *values) -> None:
    h.update(repr(values).encode())
    h.update(b"\n")


def simulation_digest(results, network, base_rtt_s: float) -> str:
    """sha256 over every flow's trace, samples, counters and PE cloud."""
    h = hashlib.sha256()
    senders = network.senders if network is not None else [None] * len(results)
    for result, sender in zip(results, senders):
        trace = result.trace
        _update(h, "flow", result.label, trace.flow_id, len(trace.records))
        for r in trace.records:
            _update(h, r.arrival_time, r.sent_time, r.seq, r.payload_bytes,
                    r.one_way_delay, r.is_retransmission)
        for loss in trace.losses:
            _update(h, "loss", loss.time, loss.seq)
        for sample in trace.cwnd_samples:
            _update(h, "cwnd", *sample)
        for sample in trace.rate_samples:
            _update(h, "rate", *sample)
        _update(h, "counters", result.packets_sent, result.retransmissions,
                result.congestion_events, result.spurious_events)
        if sender is not None:
            _update(h, "sender", sender.delivered_bytes, sender.round_count,
                    sender.bytes_in_flight, sender.completion_time)
        points = np.ascontiguousarray(sample_points(trace, base_rtt_s=base_rtt_s),
                                      dtype=np.float64)
        _update(h, "points", points.shape)
        h.update(points.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulation_output_matches_pinned_digest(name):
    results, network, base_rtt_s = SCENARIOS[name]()
    assert all(r.trace.records for r in results), "every flow must deliver data"
    assert simulation_digest(results, network, base_rtt_s) == GOLDEN[name]
