"""Propagation paths with netem-style impairments.

A :class:`Path` moves packets between two points after a propagation
delay.  On top of the fixed delay it can apply the impairments the paper's
toolchain (``tc netem`` / Mahimahi) offers: random jitter, i.i.d. random
loss and reordering.  The controlled-testbed experiments use plain delays;
the "in the wild" experiments (§4.2) use jitter + loss + cross traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.netsim.engine import EventLoop
from repro.netsim.packet import Packet


@dataclass(frozen=True)
class NetemConfig:
    """Impairment knobs, mirroring ``tc netem`` semantics.

    ``jitter_s`` is the half-width of a uniform perturbation added to the
    propagation delay.  ``loss_rate`` drops packets i.i.d.  ``reorder_rate``
    sends the affected packet with an extra ``reorder_extra_s`` delay, which
    lets it be overtaken by later packets.
    """

    jitter_s: float = 0.0
    loss_rate: float = 0.0
    reorder_rate: float = 0.0
    reorder_extra_s: float = 0.0

    def validate(self) -> None:
        if self.jitter_s < 0:
            raise ValueError("jitter must be non-negative")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if not 0.0 <= self.reorder_rate < 1.0:
            raise ValueError("reorder rate must be in [0, 1)")
        if self.reorder_rate > 0 and self.reorder_extra_s <= 0:
            raise ValueError("reordering requires a positive extra delay")


#: A path with no impairments; the default for testbed experiments.
PERFECT = NetemConfig()


class Path:
    """One-way propagation segment.

    Delivery order is preserved for equal effective delays because the
    event loop breaks ties by scheduling order; jitter and reordering can
    invert delivery order exactly as netem does.

    ``forwarded`` counts packets :meth:`send` scheduled to arrive, which
    includes any still propagating when a run stops; ``lost`` counts
    netem drops.  The arrival calls ``deliver(packet)`` straight
    from the event loop, with no per-packet closure.
    """

    def __init__(
        self,
        loop: EventLoop,
        delay_s: float,
        deliver: Callable[[Packet], None],
        netem: NetemConfig = PERFECT,
        rng: random.Random | None = None,
    ):
        if delay_s < 0:
            raise ValueError("propagation delay must be non-negative")
        netem.validate()
        self._loop = loop
        self.delay_s = delay_s
        self._deliver = deliver
        self.netem = netem
        self._rng = rng or random.Random(0)
        #: Diagnostics.
        self.forwarded = 0
        self.lost = 0

    def send(self, packet: Packet) -> None:
        netem = self.netem
        if netem.loss_rate > 0.0 and self._rng.random() < netem.loss_rate:
            self.lost += 1
            return
        delay = self.delay_s
        if netem.jitter_s > 0.0:
            delay += self._rng.uniform(-netem.jitter_s, netem.jitter_s)
            if delay < 0.0:
                delay = 0.0
        if netem.reorder_rate > 0.0 and self._rng.random() < netem.reorder_rate:
            delay += netem.reorder_extra_s
        self.forwarded += 1
        loop = self._loop
        loop.schedule_at(loop.now + delay, self._deliver, packet)
