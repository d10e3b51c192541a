"""TopoNetwork: bit-identity with Network, conservation, flow control."""

import pytest

from repro.netsim.network import LinkConfig, Network
from repro.stacks import registry
from repro.topo.compile import TopoNetwork
from repro.topo.spec import FlowEntry, LinkEntry, TopologySpec


def degenerate_spec(start_spread_s=0.5):
    """One link, two flows: the dumbbell, written as a TopologySpec."""
    return TopologySpec(
        name="degenerate",
        links=(
            LinkEntry(name="bottleneck", bandwidth_mbps=16.0, delay_ms=5.0,
                      buffer_bdp=1.0),
        ),
        flows=(
            FlowEntry(label="a", stack="linux", cca="cubic"),
            FlowEntry(label="b", stack="quiche", cca="cubic"),
        ),
        start_spread_s=start_spread_s,
    )


def dumbbell_network(seed, start_spread_s=0.5):
    link = LinkConfig(bandwidth_bps=16e6, rtt_s=0.01, buffer_bdp=1.0)
    flows = [
        registry.get_stack("linux").flow_spec("cubic", label="a"),
        registry.get_stack("quiche").flow_spec("cubic", label="b"),
    ]
    return Network(link, flows, seed=seed, start_spread_s=start_spread_s)


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_degenerate_spec_matches_network_exactly(self, seed):
        # The tentpole acceptance criterion: a one-link TopologySpec is
        # bit-identical to the dumbbell Network under the same seed.
        topo_results = TopoNetwork(degenerate_spec(), seed=seed).run(8.0)
        net_results = dumbbell_network(seed).run(8.0)
        for topo, net in zip(topo_results, net_results):
            assert topo.trace.records == net.trace.records
            assert topo.trace.losses == net.trace.losses
            assert topo.trace.cwnd_samples == net.trace.cwnd_samples
            assert topo.packets_sent == net.packets_sent
            assert topo.retransmissions == net.retransmissions
            assert topo.congestion_events == net.congestion_events

    def test_identity_holds_without_start_spread(self):
        topo_results = TopoNetwork(
            degenerate_spec(start_spread_s=0.0), seed=3
        ).run(5.0)
        net_results = dumbbell_network(3, start_spread_s=0.0).run(5.0)
        for topo, net in zip(topo_results, net_results):
            assert topo.trace.records == net.trace.records

    def test_same_seed_same_result_different_seed_differs(self):
        first = TopoNetwork(degenerate_spec(), seed=5).run(5.0)
        second = TopoNetwork(degenerate_spec(), seed=5).run(5.0)
        third = TopoNetwork(degenerate_spec(), seed=6).run(5.0)
        assert [r.trace.records for r in first] == [
            r.trace.records for r in second
        ]
        assert [r.trace.records for r in first] != [
            r.trace.records for r in third
        ]


def chain_spec(buffer_bdp=1.0, flows=None):
    return TopologySpec(
        name="chain",
        links=(
            LinkEntry(name="access", bandwidth_mbps=24.0, delay_ms=5.0,
                      buffer_bdp=buffer_bdp),
            LinkEntry(name="core", bandwidth_mbps=12.0, delay_ms=15.0,
                      buffer_bdp=buffer_bdp),
        ),
        flows=flows or (
            FlowEntry(label="f1", stack="linux", cca="cubic"),
            FlowEntry(label="f2", stack="quiche", cca="cubic"),
        ),
        start_spread_s=0.25,
    )


class TestMultiBottleneck:
    def test_byte_conservation_across_the_chain(self):
        # Bits cannot appear downstream: every byte the core serializes
        # entered through the access link, minus what is still queued.
        network = TopoNetwork(chain_spec(buffer_bdp=50.0), seed=2)
        network.run(5.0)
        access = network.forward_links["access"]
        core = network.forward_links["core"]
        assert core.queue.dropped == 0  # deep buffers: nothing dropped
        assert 0 < core.bytes_sent <= access.bytes_sent
        # Unaccounted bytes are only those still queued at the core, in
        # flight on the 5 ms access->core propagation path, or in the
        # core's serializer (one packet).
        in_flight_bound = int(0.005 * 24e6 / 8) + 2 * 1500
        still_inside = core.queue.bytes_queued + in_flight_bound
        assert access.bytes_sent - core.bytes_sent <= still_inside

    def test_drops_break_conservation_downstream_only(self):
        network = TopoNetwork(chain_spec(buffer_bdp=0.5), seed=2)
        network.run(5.0)
        access = network.forward_links["access"]
        core = network.forward_links["core"]
        assert core.queue.dropped > 0
        assert core.bytes_sent < access.bytes_sent

    def test_delivered_payload_no_more_than_core_capacity(self):
        results = TopoNetwork(chain_spec(), seed=9).run(6.0)
        delivered_bps = sum(r.mean_throughput_bps for r in results)
        assert delivered_bps <= 12e6 * 1.01

    def test_partial_route_skips_upstream_links(self):
        flows = (
            FlowEntry(label="long", stack="linux", cca="cubic"),
            FlowEntry(label="core-only", stack="quiche", cca="cubic",
                      route=("core",)),
        )
        network = TopoNetwork(chain_spec(flows=flows), seed=4)
        network.run(4.0)
        # The core-only flow (id 1) is wired into the core hop only.
        access = network.forward_links["access"]
        core = network.forward_links["core"]
        assert 0 in access.next_hop and 1 not in access.next_hop
        assert 0 in core.next_hop and 1 in core.next_hop
        assert network.traces[1].records  # core-only flow delivered
        assert access.bytes_sent > 0


class TestFlowControls:
    def test_end_s_stops_a_flow(self):
        flows = (
            FlowEntry(label="whole", stack="linux", cca="cubic"),
            FlowEntry(label="early", stack="quiche", cca="cubic", end_s=2.0),
        )
        network = TopoNetwork(chain_spec(flows=flows), seed=1)
        network.run(6.0)
        early = network.traces[1]
        assert early.records
        # Nothing arrives much after the stop (allow one RTT in flight).
        assert max(r.arrival_time for r in early.records) < 2.0 + 0.25

    def test_late_start(self):
        flows = (
            FlowEntry(label="base", stack="linux", cca="cubic"),
            FlowEntry(label="late", stack="quiche", cca="cubic", start_s=3.0),
        )
        network = TopoNetwork(chain_spec(flows=flows), seed=1)
        network.run(6.0)
        late = network.traces[1]
        assert late.records
        assert min(r.arrival_time for r in late.records) >= 3.0

    def test_reverse_flow_uses_reverse_instances(self):
        flows = (
            FlowEntry(label="fwd", stack="linux", cca="cubic"),
            FlowEntry(label="rev", stack="quiche", cca="cubic",
                      direction="reverse"),
        )
        network = TopoNetwork(chain_spec(flows=flows), seed=1)
        network.run(4.0)
        instances = network.link_instances()
        assert "access:reverse" in instances and "core:reverse" in instances
        assert instances["core:reverse"].bytes_sent > 0
        assert network.traces[1].records

    def test_appending_a_reverse_flow_leaves_forward_flows_unchanged(self):
        # RNG discipline: flow draws happen in declaration order, so a
        # flow added at the end cannot perturb earlier flows' randomness,
        # and reverse links have their own seed lineage.
        base = TopoNetwork(chain_spec(), seed=8)
        base.run(4.0)
        flows = chain_spec().flows + (
            FlowEntry(label="rev", stack="linux", cca="cubic",
                      direction="reverse"),
        )
        extended = TopoNetwork(chain_spec(flows=flows), seed=8)
        extended.run(4.0)
        for i in range(2):
            assert (
                base.traces[i].records == extended.traces[i].records
            ), f"forward flow {i} perturbed by an appended reverse flow"

    def test_extra_delay_slows_the_flow(self):
        flows = (
            FlowEntry(label="near", stack="linux", cca="cubic"),
            FlowEntry(label="far", stack="linux", cca="cubic",
                      extra_delay_ms=60.0),
        )
        results = TopoNetwork(chain_spec(flows=flows), seed=3).run(6.0)
        assert results[0].mean_throughput_bps > results[1].mean_throughput_bps
