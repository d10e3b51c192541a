"""The discrete-event engine.

A single :class:`EventLoop` drives one simulated experiment.  The heap
holds ``(time, seq, fn, arg)`` tuples: ``seq`` is a per-loop counter, so
two entries never compare equal and ties at the same ``time`` resolve by
``seq`` in C, without ever reaching ``fn`` or ``arg``.  Events scheduled
earlier therefore run first, which makes every simulation fully
deterministic for a given seed.  When an entry pops the loop calls
``fn(arg)``, so a component can schedule a bound method with its packet
and allocate no closure.  A zero-argument callback is queued as
``Event._run`` with its :class:`Event` as the argument.

**Ordering invariant.**  Events run in ascending ``(time, seq)`` order,
and every ``seq`` is taken from the loop's counter at the moment the
caller asks for the event, exactly once.

**Cancellation.**  Entries are never removed from the heap.  A caller
that may cancel schedules a zero-argument callback and gets an
:class:`Event` handle back; its entry runs the callback only if the
handle was not cancelled.  A :class:`Timer` needs no handle: its entries
carry their own ``seq`` as the argument, and the timer ignores any entry
whose ``seq`` is no longer the one it queued.

**Lazy timers.**  :class:`Timer` re-arms are the bulk of all scheduling
(every ACK and every send pushes the RTO deadline back).  Moving a
deadline *later* does not push a new entry: the timer takes the next
``seq`` from the counter, as an eager push would have, and remembers the
new ``(deadline, seq)`` key while its old, earlier entry stays queued.
When that stale entry pops, the timer re-queues itself under the
remembered key.  The old entry pops before the new key is due, so the
re-queued entry sits in the heap before anything that must follow it is
popped: the run order is exactly the eager one.  Moving a deadline
*earlier* abandons the queued entry and pushes a new one.  Every push,
re-queues included, goes through :meth:`EventLoop.schedule_at`.

The engine is deliberately minimal: all protocol behaviour lives in the
components (links, paths, endpoints) that schedule callbacks on the loop.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised when the simulation is driven into an invalid state."""


class Event:
    """A scheduled callback.  Returned by :meth:`EventLoop.schedule` so the
    caller can cancel it later (e.g. a sender's pacing wake-up)."""

    __slots__ = ("time", "seq", "fn", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[[], None]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    def _run(self) -> None:
        if not self.cancelled:
            self.fn()


class EventLoop:
    """A deterministic discrete-event scheduler.

    Time is a float number of seconds.  The loop never advances past
    ``horizon`` (set by :meth:`run`), so components may schedule periodic
    events without worrying about termination.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable, Any]] = []
        self._seq = itertools.count()
        #: Current simulated time in seconds.  A plain attribute so the
        #: per-packet path reads it without a call; only the loop sets it.
        self.now = 0.0
        self._running = False

    def schedule(self, delay: float, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn)  # type: ignore[return-value]

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        arg: Any = None,
        seq: Optional[int] = None,
    ) -> Optional[Event]:
        """Schedule ``fn`` to run at absolute simulated time ``time``.

        Without ``arg`` the callback runs as ``fn()`` and the returned
        :class:`Event` can cancel it.  With ``arg`` it runs as ``fn(arg)``
        and nothing is returned: such entries cannot be cancelled.
        ``seq`` queues under a sequence number a :class:`Timer` took from
        the loop's counter earlier; by default the next one is taken now.
        """
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at {time:.9f}, now is {self.now:.9f}"
            )
        if seq is None:
            seq = next(self._seq)
        if arg is None:
            event = Event(time, seq, fn)
            heapq.heappush(self._queue, (time, seq, Event._run, event))
            return event
        heapq.heappush(self._queue, (time, seq, fn, arg))
        return None

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
            self.now = max(self.now, until)
        finally:
            self._running = False

    def run_until_idle(self, max_time: float = float("inf")) -> None:
        """Run until no events remain or ``max_time`` is reached.

        The clock rests at the time of the last entry popped, which may be
        a cancelled event or a timer entry that ran nothing.
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
            self.now, _, fn, arg = pop(queue)
            fn(arg)

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

    __slots__ = ("_loop", "_callback", "_fn", "_deadline", "_seq", "_queued_time", "_queued_seq")

    def __init__(self, loop: EventLoop, callback: Optional[Callable[[], None]] = None):
        self._loop = loop
        self._callback = callback
        self._fn: Optional[Callable[[], None]] = None
        #: The logical ``(deadline, seq)`` key; ``seq`` is -1 when disarmed.
        self._deadline = 0.0
        self._seq = -1
        #: The key of the live heap entry, which may be earlier than the
        #: deadline; ``seq`` is -1 when none is live.  Entries queued under
        #: any other seq are stale and do nothing when they pop.
        self._queued_time = 0.0
        self._queued_seq = -1

    @property
    def armed(self) -> bool:
        return self._seq >= 0

    @property
    def deadline(self) -> Optional[float]:
        if self._seq >= 0:
            return self._deadline
        return None

    def arm(self, delay: float, callback: Optional[Callable[[], None]] = None) -> None:
        """(Re-)arm the timer ``delay`` seconds from now."""
        fn = callback or self._callback
        if fn is None:
            self.cancel()
            raise SimulationError("timer armed without a callback")
        if not delay >= 0:  # also rejects NaN
            self.cancel()
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        loop = self._loop
        self._fn = fn
        self._deadline = deadline = loop.now + delay
        self._seq = seq = next(loop._seq)
        if self._queued_seq < 0 or deadline < self._queued_time:
            # Nothing live, or earlier than the live entry: push, which
            # leaves any older entry stale.  A later deadline keeps the
            # live entry, and _pop re-queues it under the seq just taken.
            self._queued_time = deadline
            self._queued_seq = seq
            loop.schedule_at(deadline, self._pop, seq, seq)

    def cancel(self) -> None:
        self._seq = self._queued_seq = -1

    def _pop(self, seq: int) -> None:
        if seq != self._queued_seq:
            return  # cancelled, or abandoned by an earlier re-arm
        seq = self._seq
        if seq != self._queued_seq:
            # A stale entry from before a later re-arm: queue the real key.
            self._queued_time = deadline = self._deadline
            self._queued_seq = seq
            self._loop.schedule_at(deadline, self._pop, seq, seq)
            return
        self._seq = self._queued_seq = -1
        self._fn()  # type: ignore[misc]
