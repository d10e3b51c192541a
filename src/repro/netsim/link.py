"""Bottleneck link with a drop-tail buffer.

This models the shaped bottleneck the paper creates with ``tc`` and
Mahimahi: a constant-rate serializer preceded by a fixed-size FIFO queue
with tail drop.  The queue size is usually given in multiples of the
bandwidth-delay product, mirroring the paper's buffer axis
(0.5, 1, 3, 5 x BDP).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.netsim.engine import EventLoop
from repro.netsim.packet import Packet


def bdp_bytes(bandwidth_bps: float, rtt_s: float) -> int:
    """Bandwidth-delay product in bytes for a link rate and base RTT."""
    return int(bandwidth_bps * rtt_s / 8)


class DropTailQueue:
    """A byte-bounded FIFO with tail drop.

    ``capacity_bytes`` bounds the amount of *queued* data, exclusive of the
    packet currently being serialized, which matches how token-bucket
    shapers (tc tbf / Mahimahi droptail) account their queue.
    """

    def __init__(self, capacity_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._queue: deque[Packet] = deque()
        self._bytes = 0
        #: Counters for diagnostics and tests.
        self.enqueued = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def bytes_queued(self) -> int:
        return self._bytes

    def offer(self, packet: Packet) -> bool:
        """Try to enqueue; returns False (tail drop) when full."""
        if self._bytes + packet.size > self.capacity_bytes:
            self.dropped += 1
            return False
        self._queue.append(packet)
        self._bytes += packet.size
        self.enqueued += 1
        return True

    def pop(self) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._bytes -= packet.size
        return packet


class BottleneckLink:
    """Constant-rate serializer fed by a drop-tail queue.

    Packets are delivered to ``on_deliver`` when their serialization
    completes; propagation delay is the business of the attached
    :class:`~repro.netsim.path.Path`, not the link.

    ``on_drop`` (if set) observes tail-dropped packets, which lets traces
    record loss events exactly the way a tcpdump on the bottleneck would
    infer them.
    """

    def __init__(
        self,
        loop: EventLoop,
        bandwidth_bps: float,
        queue: DropTailQueue,
        on_deliver: Callable[[Packet], None],
        on_drop: Optional[Callable[[Packet], None]] = None,
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self._loop = loop
        self.bandwidth_bps = bandwidth_bps
        self.queue = queue
        self._on_deliver = on_deliver
        self._on_drop = on_drop
        self._busy = False
        #: Total payload-carrying bytes serialized, for utilization checks.
        self.bytes_sent = 0

    def send(self, packet: Packet) -> None:
        """Entry point: a packet arrives at the bottleneck."""
        packet.enqueue_time = self._loop.now
        if self._busy:
            if not self.queue.offer(packet) and self._on_drop is not None:
                self._on_drop(packet)
            return
        self._transmit(packet)

    def _transmit(self, packet: Packet) -> None:
        self._busy = True
        loop = self._loop
        loop.schedule_at(loop.now + packet.size * 8 / self.bandwidth_bps, self._complete, packet)

    def _complete(self, packet: Packet) -> None:
        self.bytes_sent += packet.size
        self._on_deliver(packet)
        nxt = self.queue.pop()
        if nxt is not None:
            self._transmit(nxt)
        else:
            self._busy = False

    @property
    def busy(self) -> bool:
        return self._busy

    def queueing_delay_estimate(self) -> float:
        """Current queue drain time in seconds (used by tests/diagnostics)."""
        return self.queue.bytes_queued * 8 / self.bandwidth_bps
