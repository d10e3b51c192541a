"""Event-loop semantics: ordering, determinism, timers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.engine import EventLoop, SimulationError, Timer


def test_events_run_in_time_order():
    loop = EventLoop()
    order = []
    loop.schedule(0.3, lambda: order.append("c"))
    loop.schedule(0.1, lambda: order.append("a"))
    loop.schedule(0.2, lambda: order.append("b"))
    loop.run(1.0)
    assert order == ["a", "b", "c"]


def test_ties_break_by_scheduling_order():
    loop = EventLoop()
    order = []
    loop.schedule(0.1, lambda: order.append(1))
    loop.schedule(0.1, lambda: order.append(2))
    loop.schedule(0.1, lambda: order.append(3))
    loop.run(1.0)
    assert order == [1, 2, 3]


def test_clock_advances_to_run_horizon_even_when_idle():
    loop = EventLoop()
    loop.run(5.0)
    assert loop.now == 5.0


def test_run_does_not_execute_events_past_horizon():
    loop = EventLoop()
    fired = []
    loop.schedule(2.0, lambda: fired.append(True))
    loop.run(1.0)
    assert not fired
    loop.run(3.0)
    assert fired


def test_events_scheduled_during_run_are_processed():
    loop = EventLoop()
    order = []

    def first():
        order.append("first")
        loop.schedule(0.1, lambda: order.append("second"))

    loop.schedule(0.1, first)
    loop.run(1.0)
    assert order == ["first", "second"]


def test_cancelled_event_is_skipped():
    loop = EventLoop()
    fired = []
    event = loop.schedule(0.1, lambda: fired.append(True))
    event.cancel()
    loop.run(1.0)
    assert not fired


def test_scheduling_in_the_past_raises():
    loop = EventLoop()
    loop.schedule(0.5, lambda: None)
    loop.run(1.0)
    with pytest.raises(SimulationError):
        loop.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        loop.schedule(-0.1, lambda: None)


def test_nan_times_are_rejected_and_later_events_still_run():
    loop = EventLoop()
    fired = []
    loop.schedule(0.3, lambda: fired.append(loop.now))
    with pytest.raises(SimulationError):
        loop.schedule(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        loop.schedule_at(float("nan"), lambda: None)
    timer = Timer(loop, lambda: fired.append("timer"))
    with pytest.raises(SimulationError):
        timer.arm(float("nan"))
    assert not timer.armed and timer.deadline is None
    loop.run(1.0)
    assert fired == [0.3]


def test_argument_callbacks_get_their_argument_in_order():
    loop = EventLoop()
    seen = []
    assert loop.schedule_at(0.2, seen.append, "b") is None
    loop.schedule_at(0.1, seen.append, "a")
    loop.schedule(0.2, lambda: seen.append("c"))  # ties "b", asked later
    loop.run(1.0)
    assert seen == ["a", "b", "c"]


def test_now_tracks_current_event_time():
    loop = EventLoop()
    seen = []
    loop.schedule(0.25, lambda: seen.append(loop.now))
    loop.run(1.0)
    assert seen == [0.25]


def test_run_until_idle_drains_all_events():
    loop = EventLoop()
    count = []

    def recur(n):
        count.append(n)
        if n < 5:
            loop.schedule(0.1, lambda: recur(n + 1))

    loop.schedule(0.1, lambda: recur(1))
    loop.run_until_idle()
    assert count == [1, 2, 3, 4, 5]


class TestTimer:
    def test_timer_fires_once(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.arm(0.5)
        loop.run(2.0)
        assert fired == [0.5]

    def test_rearming_cancels_previous_deadline(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(loop.now))
        timer.arm(0.5)
        timer.arm(1.0)
        loop.run(2.0)
        assert fired == [1.0]

    def test_cancel_prevents_firing(self):
        loop = EventLoop()
        fired = []
        timer = Timer(loop, lambda: fired.append(True))
        timer.arm(0.5)
        timer.cancel()
        loop.run(2.0)
        assert not fired

    def test_armed_and_deadline(self):
        loop = EventLoop()
        timer = Timer(loop, lambda: None)
        assert not timer.armed
        assert timer.deadline is None
        timer.arm(0.5)
        assert timer.armed
        assert timer.deadline == pytest.approx(0.5)
        loop.run(1.0)
        assert not timer.armed

    def test_arm_without_callback_raises(self):
        loop = EventLoop()
        timer = Timer(loop)
        with pytest.raises(SimulationError):
            timer.arm(0.1)


class EagerTimer:
    """Reference timer: every (re-)arm cancels and pushes a new event."""

    def __init__(self, loop, callback=None):
        self._loop = loop
        self._event = None
        self._callback = callback

    @property
    def armed(self):
        return self._event is not None and not self._event.cancelled

    @property
    def deadline(self):
        return self._event.time if self.armed else None

    def arm(self, delay, callback=None):
        self.cancel()
        fn = callback or self._callback

        def fire():
            self._event = None
            fn()

        self._event = self._loop.schedule(delay, fire)

    def cancel(self):
        if self._event is not None:
            self._event.cancel()
            self._event = None


#: Binary fractions: sums stay exact, so deadlines tie with other events.
DELAYS = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0]
N_TIMERS = 3

operation = st.tuples(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.25, 2.0, 3.0]),  # when
    st.sampled_from(["arm", "arm_callback", "cancel", "event"]),
    st.integers(0, N_TIMERS - 1),
    st.sampled_from(DELAYS),
)


def run_program(timer_cls, program, refires, split):
    """Apply ``program`` to timers of ``timer_cls``; return the log of
    fires ``(time, label)`` and of every timer's ``(armed, deadline)``."""
    loop = EventLoop()
    log = []
    timers = []

    def snapshot(tag):
        log.append((loop.now, tag, tuple((t.armed, t.deadline) for t in timers)))

    def make_fired(i, label):
        pending = list(refires[i])

        def fired():
            log.append((loop.now, label))
            assert not timers[i].armed and timers[i].deadline is None
            if pending:
                delay = pending.pop(0)
                if delay is not None:
                    timers[i].arm(delay)
                    assert timers[i].deadline == loop.now + delay
            snapshot(f"after-{label}")

        return fired

    callbacks = [make_fired(i, f"t{i}") for i in range(N_TIMERS)]
    explicit = [make_fired(i, f"t{i}-explicit") for i in range(N_TIMERS)]
    timers.extend(timer_cls(loop, callbacks[i]) for i in range(N_TIMERS))

    def act(op, i, delay):
        timer = timers[i]
        if op == "arm":
            timer.arm(delay)
        elif op == "arm_callback":
            timer.arm(delay, explicit[i])
        elif op == "cancel":
            timer.cancel()
        else:
            loop.schedule_at(loop.now + delay, lambda: log.append((loop.now, f"e{i}")))
        if op.startswith("arm"):
            assert timer.armed and timer.deadline == loop.now + delay
        elif op == "cancel":
            assert not timer.armed and timer.deadline is None
        snapshot(f"{op}-{i}")

    for when, op, i, delay in program:
        loop.schedule_at(when, lambda op=op, i=i, delay=delay: act(op, i, delay))
    loop.run(split)
    loop.run(10.0)
    return log


@settings(max_examples=300, deadline=None)
@given(
    program=st.lists(operation, max_size=40),
    refires=st.lists(
        st.lists(st.sampled_from(DELAYS + [None]), max_size=3),
        min_size=N_TIMERS, max_size=N_TIMERS,
    ),
    split=st.sampled_from([0.0, 0.5, 1.0, 1.75, 10.0]),
)
def test_lazy_timer_matches_eager_reference(program, refires, split):
    assert run_program(Timer, program, refires, split) == run_program(
        EagerTimer, program, refires, split
    )


def test_rearming_later_pushes_nothing_until_the_stale_entry_pops(monkeypatch):
    pushes = []
    original = EventLoop.schedule_at

    def counting(self, *args, **kwargs):
        pushes.append(args[0])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(EventLoop, "schedule_at", counting)
    loop = EventLoop()
    fired = []
    timer = Timer(loop, lambda: fired.append(loop.now))
    for delay in (0.5, 1.0, 1.5, 2.0):
        timer.arm(delay)
    assert pushes == [0.5] and loop.pending() == 1
    assert timer.deadline == 2.0
    loop.run(1.0)
    # The stale entry popped at 0.5 and re-queued the real deadline.
    assert pushes == [0.5, 2.0] and not fired and timer.armed
    timer.arm(0.25)  # earlier: cancel and push
    assert pushes == [0.5, 2.0, 1.25]
    loop.run(3.0)
    assert fired == [1.25]
    assert len(pushes) == 3


def test_rearm_later_keeps_the_eager_sequence_number():
    loop = EventLoop()
    order = []
    timer = Timer(loop, lambda: order.append("timer"))
    timer.arm(1.0)
    loop.schedule(2.0, lambda: order.append("before"))
    timer.arm(2.0)  # ties with "before" but was armed after it
    loop.schedule(2.0, lambda: order.append("after"))
    loop.run(3.0)
    assert order == ["before", "timer", "after"]


def test_negative_delay_raises_and_disarms():
    loop = EventLoop()
    timer = Timer(loop, lambda: None)
    timer.arm(1.0)
    with pytest.raises(SimulationError):
        timer.arm(-0.1)
    assert not timer.armed
