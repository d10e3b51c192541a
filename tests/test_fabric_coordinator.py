"""Coordinator: distributed campaigns vs the single-process scheduler.

The acceptance bar for the fabric is bit-identity: a campaign routed
through the coordinator and leased workers must land in the store
byte-for-byte equal to the same campaign run by the in-process
scheduler.  These tests prove that, plus the drain/shutdown and
lease-expiry races the distributed path introduces.
"""

import threading
import time

import pytest

from repro.fabric.coordinator import Coordinator
from repro.fabric.queue import QuotaExceeded, WorkQueue
from repro.fabric.worker import worker_threads
from repro.service.scheduler import DONE, TERMINAL_STATES, Scheduler
from repro.service.specs import parse_campaign_spec
from repro.store import ResultStore

TINY = {
    "kind": "conformance",
    "stacks": ["xquic"],
    "ccas": ["cubic"],
    "duration_s": 3,
    "trials": 2,
    "run": "fabric-test",
}


def snapshots(path):
    """Every trial payload in the store, as raw comparable bytes."""
    with ResultStore(path) as store:
        return {
            key: store.get_trial(key).tobytes()
            for key in store.trial_keys()
        }


def run_fabric(coordinator, spec, workers=1, timeout=120.0):
    """Submit through the coordinator and drain it with local workers."""
    job = coordinator.submit(parse_campaign_spec(spec))
    names = [f"test-w{i}" for i in range(workers)]
    with worker_threads(coordinator, names, ttl_s=5.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if coordinator.job(job.id).state in TERMINAL_STATES:
                break
            time.sleep(0.05)
    return coordinator.job(job.id)


def test_fabric_campaign_matches_single_process(tmp_path):
    single = Scheduler(str(tmp_path / "single.db"), workers=1)
    job = single.submit(parse_campaign_spec(TINY))
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if single.job(job.id).state in TERMINAL_STATES:
            break
        time.sleep(0.05)
    single.shutdown(drain=True)
    reference = snapshots(tmp_path / "single.db")
    assert reference

    coordinator = Coordinator(str(tmp_path / "fabric.db"))
    try:
        finished = run_fabric(coordinator, TINY, workers=2)
        assert finished.state == DONE
        assert snapshots(tmp_path / "fabric.db") == reference
    finally:
        coordinator.shutdown(drain=False)


def test_identical_resubmission_dedupes(tmp_path):
    coordinator = Coordinator(str(tmp_path / "fabric.db"))
    try:
        first = run_fabric(coordinator, TINY)
        assert first.state == DONE
        before = snapshots(tmp_path / "fabric.db")
        second = run_fabric(coordinator, TINY)
        assert second.state == DONE
        assert second.id != first.id
        # Content-addressed identity: the rerun adds zero trial rows.
        assert snapshots(tmp_path / "fabric.db") == before
    finally:
        coordinator.shutdown(drain=False)


def test_lease_expiry_hands_campaign_to_next_worker(tmp_path):
    """A worker that leases and dies silently must not wedge the queue:
    the lease expires and a live worker reruns the campaign to done."""
    coordinator = Coordinator(
        str(tmp_path / "fabric.db"), lease_ttl_s=0.3, max_attempts=5
    )
    try:
        job = coordinator.submit(parse_campaign_spec(TINY))
        dead = coordinator.lease_task("doomed-worker", ttl_s=0.3)
        assert dead is not None and dead.attempt == 1
        time.sleep(0.4)  # ... the worker never heartbeats again
        finished = run_fabric(coordinator, dict(TINY, note="second"))
        assert finished.state == DONE
        # The abandoned campaign was swept back and re-run too.
        assert coordinator.job(job.id).state == DONE
        with WorkQueue(coordinator.store_path) as q:
            assert q.task(job.id).attempts >= 2
    finally:
        coordinator.shutdown(drain=False)


def test_drain_shutdown_races_concurrent_submits(tmp_path):
    """shutdown(drain=True) while submitters and workers race: every
    accepted campaign completes, every late submit fails loudly, and
    nothing deadlocks."""
    coordinator = Coordinator(str(tmp_path / "fabric.db"))
    accepted, rejected = [], []
    lock = threading.Lock()

    def submitter(i):
        spec = dict(TINY, note=f"racer-{i}")
        try:
            job = coordinator.submit(parse_campaign_spec(spec))
        except RuntimeError:
            with lock:
                rejected.append(i)
        else:
            with lock:
                accepted.append(job.id)

    with worker_threads(coordinator, ["drain-w0", "drain-w1"], ttl_s=5.0):
        submitters = [
            threading.Thread(target=submitter, args=(i,)) for i in range(4)
        ]
        for i, thread in enumerate(submitters):
            thread.start()
            if i == 1:
                # Drain mid-burst so later submits race the stop flag.
                drainer = threading.Thread(
                    target=coordinator.shutdown,
                    kwargs={"drain": True, "timeout": 120.0},
                )
                drainer.start()
        for thread in submitters:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
        drainer.join(timeout=150.0)
        assert not drainer.is_alive(), "drain shutdown deadlocked"

    assert accepted, "no submit won the race"
    assert len(accepted) + len(rejected) == 4
    for campaign_id in accepted:
        assert coordinator.job(campaign_id).state == DONE
    with WorkQueue(coordinator.store_path) as q:
        assert q.depth() == 0


def test_tenant_quota_rejects_and_unwinds(tmp_path):
    coordinator = Coordinator(str(tmp_path / "fabric.db"))
    try:
        coordinator.ensure_tenant("capped", max_pending=1)
        first = coordinator.submit(
            parse_campaign_spec(TINY), tenant="capped"
        )
        with pytest.raises(QuotaExceeded):
            coordinator.submit(
                parse_campaign_spec(dict(TINY, note="over")), tenant="capped"
            )
        # The rejected campaign is unwound, not left pending forever.
        jobs = [job.id for job in coordinator.jobs()]
        assert jobs == [first.id]
    finally:
        coordinator.shutdown(drain=False)


def test_metrics_include_fabric_and_tenants(tmp_path):
    coordinator = Coordinator(str(tmp_path / "fabric.db"))
    try:
        coordinator.ensure_tenant("teamA", weight=2)
        finished = run_fabric(coordinator, TINY)
        assert finished.state == DONE
        data = coordinator.metrics()
        assert data["fabric"]["states"].get("done") == 1
        assert "default" in data["fabric"]["tenants"]
        assert "teamA" in data["fabric"]["tenants"]
    finally:
        coordinator.shutdown(drain=False)


def test_resume_settles_task_finished_while_down(tmp_path):
    """A coordinator restart meeting an already-done queue row settles
    the journaled job from the durable row instead of re-queueing it."""
    db = str(tmp_path / "fabric.db")
    coordinator = Coordinator(db)
    job = coordinator.submit(parse_campaign_spec(TINY))
    coordinator.shutdown(drain=False, timeout=0.1)

    # While the coordinator is down, a worker finishes the task at the
    # queue level (its completion commit raced the coordinator's exit).
    with WorkQueue(db) as q:
        lease = q.lease("orphan-worker", ttl_s=30.0)
        assert lease.campaign == job.id
        q.complete(job.id, lease.lease_id, {"cells": 1})

    reborn = Coordinator(db)
    try:
        resumed = reborn.resume_pending()
        assert job.id in resumed
        settled = reborn.job(job.id)
        assert settled is not None and settled.state == DONE
        with WorkQueue(db) as q:
            assert q.depth() == 0
    finally:
        reborn.shutdown(drain=False)
