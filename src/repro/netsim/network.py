"""Experiment network: flows routed over a chain of queued links.

The one-link case is the paper's dumbbell: senders on one machine,
receivers on the other, a single shaped bottleneck in between
(tc/Mahimahi), and an uncongested reverse path for ACKs.  More links
make a chain, in the spirit of CoCo-Beholder's testbeds: each flow
crosses a route of links in either direction, and every direction of a
link it uses is its own queue plus serializer.

The forward one-way delay is applied after each link's serializer (as
with Mahimahi's delay shell); the return path carries the route's whole
one-way delay back, uncongested.  Per-flow delay jitter models the
natural run-to-run variation of a real testbed and is what makes
repeated trials differ, which the paper's outlier-removal (intersection
over trials) relies on.

RNG draw order
--------------
A run is a pure function of its seed, and the draws happen in this
order:

1. master ``Random(seed)``; one ``uniform`` start-offset draw per flow
   (skipped entirely when ``start_spread_s == 0``);
2. queue RNGs derive from the seed alone, never from the master RNG, so
   adding links or reverse directions cannot perturb flow draws: link
   ``i`` forward is ``seed ^ 0x51ED ^ (i * 0x9E3779B9)`` (so the first
   link is ``seed ^ 0x51ED``), its reverse direction ``seed ^ 0x7EAF ^
   (i * 0x9E3779B9)``;
3. per flow, in declaration order: one ``getrandbits(32)`` draw per hop
   in travel order (the hop's ``Path``), then one for the return path;
   a one-link flow draws post-bottleneck path, then return path;
4. one ``getrandbits(32)`` draw for the cross-traffic source.

``run`` schedules sender starts, then ``end_time`` stops, then starts the
cross traffic, so flows without an end time keep the same event sequence
numbers whether or not another flow has one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cca.base import CongestionController
from repro.netsim.aqm import DISCIPLINES, disciplines, make_queue
from repro.netsim.crosstraffic import CrossTrafficConfig, OnOffSource
from repro.netsim.engine import EventLoop
from repro.netsim.link import BottleneckLink, bdp_bytes
from repro.netsim.endpoint import Receiver, ReceiverConfig, Sender, SenderConfig
from repro.netsim.packet import Packet
from repro.netsim.path import NetemConfig, Path, PERFECT
from repro.netsim.trace import FlowTrace

#: Queue-RNG salts: forward directions, reverse directions, and the
#: per-link-index spread (index 0 adds nothing).
_FWD_QUEUE_SALT = 0x51ED
_REV_QUEUE_SALT = 0x7EAF
_LINK_SALT = 0x9E3779B9


@dataclass(frozen=True)
class LinkConfig:
    """The bottleneck and base path."""

    bandwidth_bps: float = 20e6
    rtt_s: float = 0.05
    #: Queue capacity as a multiple of the bandwidth-delay product.
    buffer_bdp: float = 1.0
    #: Absolute override for the queue size in bytes (wins over buffer_bdp).
    buffer_bytes: Optional[int] = None
    #: Bottleneck queue discipline: "droptail" (the paper's setting) or
    #: any name in the repro.netsim.aqm DISCIPLINES registry ("red",
    #: "codel", "pie", "fq_codel", ...).
    queue_discipline: str = "droptail"

    def queue_capacity(self) -> int:
        if self.buffer_bytes is not None:
            return self.buffer_bytes
        capacity = int(self.buffer_bdp * bdp_bytes(self.bandwidth_bps, self.rtt_s))
        # Even "zero" buffers fit a couple of packets in real shapers.
        return max(capacity, 3 * 1500)

    def validate(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.rtt_s <= 0:
            raise ValueError("RTT must be positive")
        if self.buffer_bdp <= 0 and self.buffer_bytes is None:
            raise ValueError("buffer must be positive")
        if self.queue_discipline not in DISCIPLINES:
            raise ValueError(
                f"unknown queue discipline {self.queue_discipline!r} "
                f"(known: {', '.join(disciplines())})"
            )


@dataclass
class FlowSpec:
    """One flow: a CCA factory plus the stack's sender/receiver behaviour."""

    label: str
    cca_factory: Callable[[], CongestionController]
    sender_config: SenderConfig = field(default_factory=SenderConfig)
    receiver_config: ReceiverConfig = field(default_factory=ReceiverConfig)
    start_time: float = 0.0
    #: Extra netem impairments on this flow's forward path.
    forward_netem: NetemConfig = PERFECT
    #: Extra one-way delay relative to the base RTT (keeps both flows at
    #: the same RTT in conformance runs, per the paper's methodology).
    extra_delay_s: float = 0.0
    #: Link indices the flow crosses, in forward orientation; empty means
    #: every link in chain order.
    route: Tuple[int, ...] = ()
    #: "forward" crosses the route left to right on the forward link
    #: directions; "reverse" crosses it right to left on the reverse ones.
    direction: str = "forward"
    #: Stop the sender at this simulated time (None = run to the end).
    end_time: Optional[float] = None
    #: The ACK path's delay before ``extra_delay_s``; None sums the
    #: route's one-way link delays (``rtt_s / 2`` each).
    return_delay_s: Optional[float] = None


@dataclass
class FlowResult:
    """Outcome of one flow in a finished run."""

    label: str
    trace: FlowTrace
    packets_sent: int
    retransmissions: int
    congestion_events: int
    spurious_events: int

    @property
    def mean_throughput_bps(self) -> float:
        return self.trace.mean_throughput_bps()


class RoutedLink(BottleneckLink):
    """One direction of a link: queue, serializer and per-flow next hop."""

    def __init__(self, loop: EventLoop, config: LinkConfig, seed: int, on_drop):
        queue = make_queue(
            config.queue_discipline,
            config.queue_capacity(),
            clock=lambda: loop.now,
            rng=random.Random(seed),
        )
        super().__init__(
            loop, config.bandwidth_bps, queue, on_deliver=self._dispatch, on_drop=on_drop
        )
        self.config = config
        #: flow id -> the Path carrying its packets beyond this link.
        self.next_hop: Dict[int, Path] = {}

    def _dispatch(self, packet: Packet) -> None:
        path = self.next_hop.get(packet.flow_id)
        if path is not None:
            path.send(packet)
        # Cross-traffic packets vanish after the link: only their queue
        # occupancy matters.


class Network:
    """Flows routed over a chain of links, wired up and ready to run.

    ``links`` is one :class:`LinkConfig` (the dumbbell) or a sequence of
    them in chain order.  Cross traffic enters the first link.
    """

    def __init__(
        self,
        links: Union[LinkConfig, Sequence[LinkConfig]],
        flows: List[FlowSpec],
        seed: int = 0,
        cross_traffic: Optional[CrossTrafficConfig] = None,
        base_jitter_s: float = 0.0,
        start_spread_s: float = 0.0,
    ):
        if isinstance(links, LinkConfig):
            links = [links]
        if not links:
            raise ValueError("at least one link is required")
        for config in links:
            config.validate()
        if not flows:
            raise ValueError("at least one flow is required")
        self.loop = EventLoop()
        self._rng = random.Random(seed)
        #: Random per-flow start offsets: real flows never start in the
        #: same microsecond (handshakes, process scheduling), and launching
        #: them in lockstep locks deterministic startup phases together.
        self._start_offsets = [
            self._rng.uniform(0.0, start_spread_s) if start_spread_s > 0 else 0.0
            for _ in flows
        ]
        self._seed = seed
        #: Bottleneck drops per flow id (diagnostics), over every link.
        self.drops_by_flow: Dict[int, int] = {}
        #: The forward direction of every link, in chain order.
        self.links = [
            RoutedLink(self.loop, config, seed ^ _FWD_QUEUE_SALT ^ (i * _LINK_SALT), self._on_drop)
            for i, config in enumerate(links)
        ]
        #: Reverse directions by link index, created on first use so
        #: forward-only runs pay nothing for them.
        self.reverse_links: Dict[int, RoutedLink] = {}

        self.senders: List[Sender] = []
        self.receivers: List[Receiver] = []
        self.traces: List[FlowTrace] = []
        self._specs = flows
        for flow_id, spec in enumerate(flows):
            self._wire_flow(flow_id, spec, base_jitter_s)

        self.cross_source: Optional[OnOffSource] = None
        if cross_traffic is not None:
            self.cross_source = OnOffSource(
                self.loop,
                flow_id=len(flows),
                transmit=self.links[0].send,
                config=cross_traffic,
                rng=random.Random(self._rng.getrandbits(32)),
            )

    # -- plumbing -----------------------------------------------------
    def _reverse_link(self, index: int) -> RoutedLink:
        link = self.reverse_links.get(index)
        if link is None:
            link = RoutedLink(
                self.loop,
                self.links[index].config,
                self._seed ^ _REV_QUEUE_SALT ^ (index * _LINK_SALT),
                self._on_drop,
            )
            self.reverse_links[index] = link
        return link

    def _wire_flow(self, flow_id: int, spec: FlowSpec, base_jitter_s: float) -> None:
        trace = FlowTrace(flow_id, label=spec.label)
        self.traces.append(trace)

        route = list(spec.route) if spec.route else list(range(len(self.links)))
        if not all(0 <= i < len(self.links) for i in route):
            raise ValueError(f"flow {spec.label!r}: route {route} names no such link")
        if spec.direction == "forward":
            hops = [self.links[i] for i in route]
        elif spec.direction == "reverse":
            hops = [self._reverse_link(i) for i in reversed(route)]
        else:
            raise ValueError(f"flow {spec.label!r}: unknown direction {spec.direction!r}")
        hop_rngs = [random.Random(self._rng.getrandbits(32)) for _ in hops]
        return_rng = random.Random(self._rng.getrandbits(32))

        sender = Sender(
            self.loop,
            flow_id,
            cca=spec.cca_factory(),
            transmit=hops[0].send,
            config=spec.sender_config,
            trace=trace,
        )
        # Reverse: receiver -> the route's delay -> sender (uncongested).
        return_delay = spec.return_delay_s
        if return_delay is None:
            return_delay = sum(hop.config.rtt_s / 2 for hop in hops)
        return_path = Path(
            self.loop,
            return_delay + spec.extra_delay_s,
            deliver=sender.on_ack,
            rng=return_rng,
        )
        receiver = Receiver(
            self.loop,
            flow_id,
            send_ack=return_path.send,
            config=spec.receiver_config,
            trace=trace,
        )
        # Forward: each link's delay follows its serializer; the last hop
        # also carries the flow's extra delay and netem impairments.
        last = len(hops) - 1
        for i, (hop, rng) in enumerate(zip(hops, hop_rngs)):
            if i < last:
                path = Path(self.loop, hop.config.rtt_s / 2, deliver=hops[i + 1].send, rng=rng)
            else:
                netem = replace(
                    spec.forward_netem,
                    jitter_s=max(spec.forward_netem.jitter_s, base_jitter_s),
                )
                path = Path(
                    self.loop,
                    hop.config.rtt_s / 2 + spec.extra_delay_s,
                    deliver=receiver.on_packet,
                    netem=netem,
                    rng=rng,
                )
            hop.next_hop[flow_id] = path
        self.senders.append(sender)
        self.receivers.append(receiver)

    def _on_drop(self, packet: Packet) -> None:
        # The sender discovers the loss later through its own loss
        # detection; here we only keep the links' tally (a tcpdump at the
        # switch would see exactly this).
        self.drops_by_flow[packet.flow_id] = (
            self.drops_by_flow.get(packet.flow_id, 0) + 1
        )

    # -- execution -------------------------------------------------------
    def run(self, duration: float) -> List[FlowResult]:
        """Run the experiment for ``duration`` seconds and collect results."""
        for sender, spec, offset in zip(self.senders, self._specs, self._start_offsets):
            start_at = spec.start_time + offset
            if start_at <= self.loop.now:
                sender.start()
            else:
                self.loop.schedule_at(start_at, sender.start)
        for sender, spec in zip(self.senders, self._specs):
            if spec.end_time is not None:
                self.loop.schedule_at(spec.end_time, sender.stop)
        if self.cross_source is not None:
            self.cross_source.start()
        self.loop.run(duration)
        for sender in self.senders:
            sender.stop()
        if self.cross_source is not None:
            self.cross_source.stop()
        results = []
        for sender, spec, trace in zip(self.senders, self._specs, self.traces):
            results.append(
                FlowResult(
                    label=spec.label,
                    trace=trace,
                    packets_sent=sender.packets_sent,
                    retransmissions=sender.retransmissions,
                    congestion_events=sender._congestion_events,
                    spurious_events=sender.spurious_events,
                )
            )
        return results
