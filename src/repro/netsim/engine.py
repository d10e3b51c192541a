"""The discrete-event engine.

A single :class:`EventLoop` drives one simulated experiment.  The heap
holds ``(time, seq, event)`` tuples: ``seq`` is a per-loop counter, so two
entries never compare equal and ties at the same ``time`` resolve by
``seq`` in C, without ever reaching the :class:`Event`.  Events scheduled
earlier therefore run first, which makes every simulation fully
deterministic for a given seed.

**Ordering invariant.**  Events run in ascending ``(time, seq)`` order,
and every ``seq`` is taken from the loop's counter at the moment the
caller asks for the event, exactly once.

**Lazy timers.**  :class:`Timer` re-arms are the bulk of all scheduling
(every ACK and every send pushes the RTO deadline back).  Moving a
deadline *later* does not push a new entry: the timer takes the next
``seq`` from the counter, as an eager push would have, and remembers the
new ``(deadline, seq)`` key while its old, earlier entry stays queued.
When that stale entry pops, the timer re-queues itself under the
remembered key.  The old entry pops before the new key is due, so the
re-queued entry sits in the heap before anything that must follow it is
popped: the run order is exactly the eager one.  Moving a deadline
*earlier* cancels the queued entry and pushes a new one.  Every push,
re-queues included, goes through :meth:`EventLoop.schedule_at`.

The engine is deliberately minimal: all protocol behaviour lives in the
components (links, paths, endpoints) that schedule callbacks on the loop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


class Event:
    """A scheduled callback.  Returned by :meth:`EventLoop.schedule` so the
    caller can cancel it later (e.g. retransmission timers)."""

    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True


class EventLoop:
    """A deterministic discrete-event scheduler.

    Time is a float number of seconds.  The loop never advances past
    ``horizon`` (set by :meth:`run`), so components may schedule periodic
    events without worrying about termination.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def next_seq(self) -> int:
        """Take the next sequence number, as a push at this moment would."""
        return next(self._seq)

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn)

    def schedule_at(
        self, time: float, fn: Callable[[], None], seq: Optional[int] = None
    ) -> Event:
        """Schedule ``fn`` to run at absolute simulated time ``time``.

        ``seq`` re-queues under a sequence number taken earlier with
        :meth:`next_seq`; by default the next one is taken now.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time:.9f}, now is {self._now:.9f}"
            )
        if seq is None:
            seq = next(self._seq)
        event = Event(time, seq, fn)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def run(self, until: float) -> None:
        """Run events in time order until simulated time ``until``.

        The clock is left at ``until`` even if the queue drains early, so a
        subsequent ``run`` continues from there.
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        try:
            self._drain(until)
            self._now = max(self._now, until)
        finally:
            self._running = False

    def run_until_idle(self, max_time: float = float("inf")) -> None:
        """Run until no events remain or ``max_time`` is reached.

        With a finite ``max_time`` the clock may rest at the time a lazy
        timer re-queued itself rather than at the last callback it ran.
        """
        if self._running:
            raise SimulationError("event loop is not reentrant")
        self._running = True
        try:
            self._drain(max_time)
        finally:
            self._running = False

    def _drain(self, until: float) -> None:
        queue = self._queue
        pop = heapq.heappop
        while queue and queue[0][0] <= until:
            time, _, event = pop(queue)
            if event.cancelled:
                continue
            self._now = time
            event.fn()

    def pending(self) -> int:
        """Number of queued (possibly cancelled or stale) entries, for
        diagnostics."""
        return len(self._queue)


class Clock:
    """Read-only view of an :class:`EventLoop`'s time.

    Handed to components that must observe time but must not schedule,
    e.g. trace sinks.
    """

    __slots__ = ("_loop",)

    def __init__(self, loop: EventLoop):
        self._loop = loop

    @property
    def now(self) -> float:
        return self._loop.now


def make_timer(loop: EventLoop) -> "Timer":
    """Convenience factory mirroring kernel-style rearmable timers."""
    return Timer(loop)


class Timer:
    """A rearmable one-shot timer built on :class:`EventLoop`.

    Mirrors how retransmission (RTO) and probe timers behave in real
    stacks: re-arming replaces the previous deadline.  Re-arms that move
    the deadline later are lazy (see the module docstring); the observable
    behaviour is that of cancelling and scheduling anew.
    """

    __slots__ = ("_loop", "_event", "_callback", "_fn", "_deadline", "_seq")

    def __init__(self, loop: EventLoop, callback: Optional[Callable[[], None]] = None):
        self._loop = loop
        #: The queued heap entry; its key may be earlier than the deadline.
        self._event: Optional[Event] = None
        self._callback = callback
        self._fn: Optional[Callable[[], None]] = None
        #: The logical ``(deadline, seq)`` key while armed.
        self._deadline = 0.0
        self._seq = -1

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    @property
    def deadline(self) -> Optional[float]:
        if self.armed:
            return self._deadline
        return None

    def arm(self, delay: float, callback: Optional[Callable[[], None]] = None) -> None:
        """(Re-)arm the timer ``delay`` seconds from now."""
        fn = callback or self._callback
        if fn is None:
            self.cancel()
            raise SimulationError("timer armed without a callback")
        if delay < 0:
            self.cancel()
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        loop = self._loop
        self._fn = fn
        self._deadline = deadline = loop._now + delay
        event = self._event
        if event is not None and deadline >= event.time:
            # Not earlier: the queued entry stays and takes the seq an
            # eager push would have taken; _fire re-queues under it.
            self._seq = loop.next_seq()
        else:
            self.cancel()
            self._event = loop.schedule_at(deadline, self._fire)
            self._seq = self._event.seq

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        if self._event.seq != self._seq:  # type: ignore[union-attr]
            # A stale entry from before a later re-arm: queue the real key.
            self._event = self._loop.schedule_at(self._deadline, self._fire, self._seq)
            return
        self._event = None
        self._fn()  # type: ignore[misc]
