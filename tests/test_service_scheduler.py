"""Scheduler: journaling, resume, backpressure, cancellation, drain.

The tiny campaigns here use one (stack, cca) cell at a 3-second protocol
so every test runs in seconds; the cache directory is isolated per test
module so dedup observations come from the warehouse, not a shared disk
cache.
"""

import signal
import threading
import time

import pytest

from repro.service import QueueFull, Scheduler, ServiceApp, parse_campaign_spec
from repro.service.scheduler import (
    CANCELLED,
    DONE,
    EVENT_SUBMITTED,
    PENDING,
    RUNNING,
    TERMINAL_STATES,
)
from repro.store import ResultStore

TINY = {
    "kind": "conformance",
    "stacks": ["xquic"],
    "ccas": ["cubic"],
    "duration_s": 3,
    "trials": 2,
}


def wait_state(scheduler, campaign_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = scheduler.job(campaign_id)
        if job is not None and job.state in TERMINAL_STATES:
            return job
        time.sleep(0.05)
    raise AssertionError(f"campaign {campaign_id} never finished")


def test_campaign_runs_and_journals(tmp_path):
    db = str(tmp_path / "store.db")
    scheduler = Scheduler(db, workers=1)
    job = scheduler.submit(parse_campaign_spec(TINY))
    finished = wait_state(scheduler, job.id)
    assert finished.state == DONE
    assert finished.statuses.get("ok", 0) > 0
    assert finished.done == finished.total > 0
    scheduler.shutdown(drain=True)

    with ResultStore(db) as store:
        names = {r.name for r in store.runs()}
        assert job.spec.run_name() in names
        journal = [
            e["event"] for e in store.events(campaign=job.id)
            if e["event"].startswith("service_")
        ]
        assert journal[0] == "service_submitted"
        assert journal[-1] == "service_done"
        assert "service_started" in journal


def test_second_submission_dedupes_through_the_store(tmp_path):
    # Each campaign gets a fresh memory cache: the only reuse path is
    # the warehouse.
    db = str(tmp_path / "store.db")
    scheduler = Scheduler(db, workers=1)
    spec = parse_campaign_spec(TINY)
    first = wait_state(scheduler, scheduler.submit(spec).id)
    assert first.statuses == {"ok": first.total}
    second = wait_state(scheduler, scheduler.submit(spec).id)
    # Zero new simulations: every trial came back from the warehouse.
    assert second.statuses == {"cached": second.total}
    scheduler.shutdown(drain=True)


def test_backpressure_bounded_queue(tmp_path):
    scheduler = Scheduler(str(tmp_path / "store.db"), workers=0, max_pending=2)
    spec = parse_campaign_spec(TINY)
    scheduler.submit(spec)
    scheduler.submit(spec)
    with pytest.raises(QueueFull) as err:
        scheduler.submit(spec)
    assert err.value.retry_after_s > 0
    assert scheduler.queue_depth() == 2
    scheduler.shutdown(drain=False)


def test_priority_orders_pending_campaigns(tmp_path):
    db = str(tmp_path / "store.db")
    paused = Scheduler(db, workers=0)
    spec = parse_campaign_spec(TINY)
    low = paused.submit(spec, priority=0)
    high = paused.submit(spec, priority=5)
    order = []
    item = paused._queue.get_nowait()
    order.append(item[2])
    item = paused._queue.get_nowait()
    order.append(item[2])
    assert order == [high.id, low.id]
    paused.shutdown(drain=False)


def test_cancel_pending_campaign(tmp_path):
    scheduler = Scheduler(str(tmp_path / "store.db"), workers=0)
    job = scheduler.submit(parse_campaign_spec(TINY))
    assert scheduler.cancel(job.id)
    assert scheduler.job(job.id).state == CANCELLED
    assert not scheduler.cancel(job.id)  # already terminal
    assert not scheduler.cancel("nope")
    scheduler.shutdown(drain=False)

    # A cancelled campaign is not resumed by a fresh scheduler.
    fresh = Scheduler(scheduler.store_path, workers=0)
    assert fresh.resume_pending() == []
    fresh.shutdown(drain=False)


def test_cancel_running_campaign_stops_at_trial_boundary(tmp_path):
    db = str(tmp_path / "store.db")
    scheduler = Scheduler(db, workers=1)
    spec = parse_campaign_spec(dict(TINY, trials=3))
    job = scheduler.submit(spec)
    # Cancel as soon as the first trial lands.
    deadline = time.monotonic() + 120
    while not job.statuses and time.monotonic() < deadline:
        time.sleep(0.02)
    scheduler.cancel(job.id)
    finished = wait_state(scheduler, job.id)
    assert finished.state == CANCELLED
    scheduler.shutdown(drain=True)
    # Trials completed before the cancel are durably stored.
    with ResultStore(db) as store:
        assert store.counts()["trials"] >= 1


def test_drain_false_keeps_pending_journaled_and_resume_completes(tmp_path):
    db = str(tmp_path / "store.db")
    first = Scheduler(db, workers=0)  # nothing drains: both stay pending
    spec = parse_campaign_spec(TINY)
    a = first.submit(spec, priority=1)
    b = first.submit(parse_campaign_spec(dict(TINY, trials=3)))
    assert first.queue_depth() == 2
    first.shutdown(drain=False)

    with ResultStore(db) as store:
        submitted = [
            e for e in store.events() if e["event"] == EVENT_SUBMITTED
        ]
        assert {e["campaign"] for e in submitted} == {a.id, b.id}

    # A restarted scheduler resumes both from the journal and runs them.
    second = Scheduler(db, workers=1)
    resumed = second.resume_pending()
    assert set(resumed) == {a.id, b.id}
    ra = wait_state(second, a.id)
    rb = wait_state(second, b.id)
    assert ra.state == DONE and rb.state == DONE
    # The resumed jobs carry the original priorities from the journal.
    assert second.job(a.id).priority == 1
    second.shutdown(drain=True)

    # Third instance: nothing left to resume.
    third = Scheduler(db, workers=0)
    assert third.resume_pending() == []
    third.shutdown(drain=False)


def test_sigterm_drains_without_losing_trials(tmp_path):
    """kill -TERM: in-flight work survives, pending campaigns resume."""
    db = str(tmp_path / "store.db")
    app = ServiceApp(db, workers=1, max_pending=16)
    app.install_signal_handlers()
    app.start()
    try:
        spec = parse_campaign_spec(TINY)
        running = app.scheduler.submit(spec)
        queued = app.scheduler.submit(
            parse_campaign_spec(dict(TINY, trials=3))
        )
        # SIGTERM while the first campaign is mid-flight: the drain
        # finishes it, and the queued campaign never starts.
        deadline = time.monotonic() + 120
        while running.state == PENDING and time.monotonic() < deadline:
            time.sleep(0.01)
        assert running.state == RUNNING
        signal.raise_signal(signal.SIGTERM)
        assert app.wait(timeout=120.0), "service did not stop on SIGTERM"
        finished_first = app.scheduler.job(running.id)
        assert finished_first.state == DONE
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)

    with ResultStore(db) as store:
        # No completed trials lost: the finished campaign's run and its
        # trial payloads are all in the warehouse.  (``total`` counts
        # executor jobs; duplicate-key reference trials store once.)
        assert finished_first.total > 0
        assert store.counts()["trials"] >= 1
        assert len(store.trial_keys(spec.run_name())) >= 1
        assert store.has_run(spec.run_name())
        # The queued campaign was never started, only journaled.
        events = [
            e["event"] for e in store.events(campaign=queued.id)
            if e["event"].startswith("service_")
        ]
        assert events == [EVENT_SUBMITTED]

    # Restart: the pending campaign is resumed and completes.
    app2 = ServiceApp(db, workers=1)
    try:
        assert app2.resumed == [queued.id]
        finished = wait_state(app2.scheduler, queued.id)
        assert finished.state == DONE
    finally:
        app2.stop(drain=True)


def test_wait_events_long_poll(tmp_path):
    scheduler = Scheduler(str(tmp_path / "store.db"), workers=0)
    job = scheduler.submit(parse_campaign_spec(TINY))
    first = scheduler.wait_events(job.id, after=0, timeout=1.0)
    assert first and first[0]["event"] == "state"
    assert first[0]["state"] == PENDING

    # A poll past the end blocks until a new event arrives.
    def emit_later():
        time.sleep(0.2)
        scheduler._emit(job, {"event": "poke"})

    threading.Thread(target=emit_later, daemon=True).start()
    start = time.monotonic()
    events = scheduler.wait_events(job.id, after=len(first), timeout=10.0)
    assert events and events[0]["event"] == "poke"
    assert time.monotonic() - start < 5.0
    assert scheduler.wait_events("unknown", timeout=0.1) == []
    scheduler.shutdown(drain=False)
