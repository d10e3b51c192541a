"""WorkQueue: lease lifecycle, expiry, DRR fairness, quotas, idempotence.

Everything here drives the queue with a fake clock, so lease expiry and
attempt accounting are exact — no sleeps, no wall-clock flake.
"""

import pytest

from repro.fabric.queue import (
    CANCELLED,
    DONE,
    FAILED,
    LEASED,
    PENDING,
    QueueError,
    QuotaExceeded,
    WorkQueue,
)

SPEC = {"kind": "conformance", "stacks": ["quiche"], "ccas": ["cubic"]}


class FakeClock:
    def __init__(self, now: float = 1000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def q(tmp_path, clock):
    with WorkQueue(str(tmp_path / "store.db"), clock=clock) as queue:
        yield queue


def test_lease_lifecycle(q):
    task = q.enqueue("c1", SPEC)
    assert task.state == PENDING and task.attempts == 0
    lease = q.lease("w1", ttl_s=30.0)
    assert lease.campaign == "c1"
    assert lease.attempt == 1
    assert q.task("c1").state == LEASED
    beat = q.heartbeat("c1", lease.lease_id, ttl_s=30.0)
    assert beat == {"ok": True, "cancel": False, "drain": False}
    assert q.complete("c1", lease.lease_id, {"cells": 1}) == "done"
    done = q.task("c1")
    assert done.state == DONE
    assert done.result == {"cells": 1}
    assert done.lease_id is None


def test_enqueue_is_idempotent_by_campaign(q):
    first = q.enqueue("c1", SPEC, priority=3)
    again = q.enqueue("c1", {"different": "spec"}, priority=9)
    assert again.spec == first.spec
    assert again.priority == first.priority == 3
    assert q.depth() == 1


def test_complete_twice_is_duplicate_not_error(q):
    q.enqueue("c1", SPEC)
    lease = q.lease("w1")
    assert q.complete("c1", lease.lease_id) == "done"
    assert q.complete("c1", lease.lease_id) == "duplicate"
    with pytest.raises(QueueError):
        q.complete("no-such-campaign", "L000000.1")


def test_expired_lease_returns_to_pending(q, clock):
    q.enqueue("c1", SPEC)
    first = q.lease("w1", ttl_s=10.0)
    clock.advance(10.1)
    assert q.sweep() == ["c1"]
    assert q.task("c1").state == PENDING
    second = q.lease("w2", ttl_s=10.0)
    assert second.attempt == 2
    assert second.lease_id != first.lease_id


def test_heartbeat_on_lost_lease_reports_not_ok(q, clock):
    q.enqueue("c1", SPEC)
    stale = q.lease("w1", ttl_s=5.0)
    clock.advance(6.0)
    q.lease("w2", ttl_s=30.0)  # sweeps, then re-leases to w2
    beat = q.heartbeat("c1", stale.lease_id)
    assert beat["ok"] is False
    # ... and the stale owner's completion must not clobber w2's lease.
    assert q.task("c1").lease_owner == "w2"


def test_heartbeat_extends_expiry(q, clock):
    q.enqueue("c1", SPEC)
    lease = q.lease("w1", ttl_s=10.0)
    clock.advance(8.0)
    q.heartbeat("c1", lease.lease_id, ttl_s=10.0)
    clock.advance(8.0)  # 16s after lease, but only 8s after the beat
    assert q.sweep() == []
    assert q.task("c1").state == LEASED


def test_attempt_cap_fails_task(tmp_path, clock):
    with WorkQueue(str(tmp_path / "s.db"), max_attempts=2, clock=clock) as q:
        q.enqueue("c1", SPEC)
        q.lease("w1", ttl_s=1.0)
        clock.advance(1.1)
        q.sweep()  # attempt 1 expired, under cap: back to pending
        q.lease("w1", ttl_s=1.0)
        clock.advance(1.1)
        q.sweep()  # attempt 2 expired at the cap: failed
        task = q.task("c1")
        assert task.state == FAILED
        assert "max_attempts=2" in task.error


def test_fail_retryable_requeues_then_terminal(q):
    q.enqueue("c1", SPEC)
    lease = q.lease("w1")
    assert q.fail("c1", lease.lease_id, "transient", retryable=True) == "retried"
    assert q.task("c1").state == PENDING
    lease = q.lease("w1")
    assert q.fail("c1", lease.lease_id, "fatal", retryable=False) == "failed"
    assert q.task("c1").error == "fatal"
    # A stale lease id is acknowledged, never applied.
    assert q.fail("c1", "L999999.9", "late", retryable=True) == "duplicate"


def test_cancel_pending_and_leased(q):
    q.enqueue("c1", SPEC)
    assert q.cancel("c1") == CANCELLED
    q.enqueue("c2", SPEC)
    lease = q.lease("w1")
    assert lease.campaign == "c2"
    assert q.cancel("c2") == "cancel-requested"
    beat = q.heartbeat("c2", lease.lease_id)
    assert beat == {"ok": True, "cancel": True, "drain": False}
    assert q.complete("c1", "any") == "cancelled"


def test_tenant_max_pending_quota(q):
    q.ensure_tenant("t", max_pending=1)
    q.enqueue("c1", SPEC, tenant="t")
    with pytest.raises(QuotaExceeded):
        q.enqueue("c2", SPEC, tenant="t")
    # Re-submitting an existing campaign never trips the quota.
    q.enqueue("c1", SPEC, tenant="t")
    lease = q.lease("w1")
    q.complete("c1", lease.lease_id)
    q.enqueue("c2", SPEC, tenant="t")  # slot freed


def test_tenant_max_active_blocks_leasing(q):
    q.ensure_tenant("t", max_active=1)
    q.enqueue("c1", SPEC, tenant="t")
    q.enqueue("c2", SPEC, tenant="t")
    first = q.lease("w1")
    assert first is not None
    assert q.lease("w2") is None  # tenant at its lease quota
    q.complete(first.campaign, first.lease_id)
    assert q.lease("w2") is not None


def test_deficit_round_robin_honours_weights(q):
    q.ensure_tenant("heavy", weight=2)
    q.ensure_tenant("light", weight=1)
    for i in range(6):
        q.enqueue(f"h{i}", SPEC, tenant="heavy")
        q.enqueue(f"l{i}", SPEC, tenant="light")
    order = []
    for _ in range(6):
        lease = q.lease("w", ttl_s=1000.0)
        order.append(lease.tenant)
        q.complete(lease.campaign, lease.lease_id)
    # Weight 2 drains twice per DRR round: heavy, heavy, light, repeat.
    assert order == ["heavy", "heavy", "light"] * 2


def test_priority_orders_within_tenant(q):
    q.enqueue("low", SPEC, priority=0)
    q.enqueue("high", SPEC, priority=5)
    assert q.lease("w1").campaign == "high"
    assert q.lease("w2").campaign == "low"


def test_status_snapshot(q, clock):
    q.ensure_tenant("t", weight=2)
    q.enqueue("c1", SPEC, tenant="t")
    q.enqueue("c2", SPEC, tenant="t")
    lease = q.lease("w1", ttl_s=30.0)
    status = q.status()
    assert status["depth"] == 2
    assert status["states"] == {PENDING: 1, LEASED: 1}
    tenant = status["tenants"]["t"]
    assert tenant["pending"] == 1 and tenant["leased"] == 1
    (live,) = status["leases"]
    assert live["campaign"] == lease.campaign
    assert live["owner"] == "w1"
    assert 0 < live["expires_in_s"] <= 30.0


# ----------------------------------------------------------- fleet registry


def test_lease_touch_registers_worker(q, clock):
    q.enqueue("c1", SPEC)
    q.lease("w1", ttl_s=30.0)
    (worker,) = q.workers()
    assert worker["name"] == "w1"
    assert worker["state"] == "active"
    assert worker["heartbeat_age_s"] == 0.0
    assert worker["leases"] == 1
    assert worker["leases_total"] == 1


def test_idle_lease_poll_registers_worker(q, clock):
    """An empty queue hands out nothing, but the poll still registers
    the worker: idle polls count as heartbeats."""
    assert q.lease("w1", ttl_s=30.0) is None
    (worker,) = q.workers()
    assert worker["name"] == "w1"
    assert worker["state"] == "active"
    assert worker["leases"] == 0
    assert worker["leases_total"] == 0
    assert "version" not in worker


def test_heartbeat_age_tracks_fake_clock(q, clock):
    assert q.lease("w1", ttl_s=30.0) is None  # an idle poll registers w1
    clock.advance(12.5)
    assert q.worker_info("w1")["heartbeat_age_s"] == 12.5
    q.enqueue("c1", SPEC)
    lease = q.lease("w1", ttl_s=30.0)
    assert q.worker_info("w1")["heartbeat_age_s"] == 0.0
    clock.advance(5.0)
    q.heartbeat("c1", lease.lease_id, ttl_s=30.0)
    assert q.worker_info("w1")["heartbeat_age_s"] == 0.0


def test_drain_directive_surfaces_on_heartbeat(q):
    q.enqueue("c1", SPEC)
    lease = q.lease("w1", ttl_s=30.0)
    q.drain_worker("w1")
    beat = q.heartbeat("c1", lease.lease_id, ttl_s=30.0)
    assert beat == {"ok": True, "cancel": False, "drain": True}
    # The directive never revokes the lease: the worker finishes it.
    assert q.complete("c1", lease.lease_id, {"cells": 1}) == "done"


def test_draining_worker_gets_exit_order_instead_of_work(q):
    q.enqueue("c1", SPEC)
    q.drain_worker("w1")
    assert q.lease("w1", ttl_s=30.0) == {"drain": True}
    # The task is untouched, and another worker picks it up.
    assert q.task("c1").state == PENDING
    lease = q.lease("w2", ttl_s=30.0)
    assert lease.campaign == "c1"


def test_drain_is_sticky_against_concurrent_heartbeat(q):
    """The race audit: a heartbeat arriving after the drain directive
    must not flip the worker back to active."""
    q.enqueue("c1", SPEC)
    lease = q.lease("w1", ttl_s=30.0)
    q.drain_worker("w1")
    for _ in range(3):
        beat = q.heartbeat("c1", lease.lease_id, ttl_s=30.0)
        assert beat["drain"] is True
    assert q.worker_info("w1")["state"] == "draining"


def test_drain_before_first_heartbeat_is_durable(q):
    q.drain_worker("w-unborn")
    assert q.worker_info("w-unborn")["state"] == "draining"
    assert q.lease("w-unborn", ttl_s=30.0) == {"drain": True}


def test_deregister_keeps_history_but_hides_worker(q):
    q.lease("w1", ttl_s=30.0)
    q.deregister_worker("w1")
    assert q.workers() == []
    info = q.worker_info("w1")
    assert info is not None and info["state"] == "exited"


def test_exited_worker_reactivates_on_new_lease(q, clock):
    q.lease("w1", ttl_s=30.0)
    q.deregister_worker("w1")
    q.enqueue("c1", SPEC)
    q.lease("w1", ttl_s=30.0)
    assert q.worker_info("w1")["state"] == "active"


def test_heartbeat_after_expiry_sweeps_first(q, clock):
    """Regression for the heartbeat/expiry race: a heartbeat landing at
    (or after) the expiry instant must observe the sweep, not resurrect
    the lease it lost."""
    q.enqueue("c1", SPEC)
    lease = q.lease("w1", ttl_s=30.0)
    clock.advance(30.0)  # expiry is inclusive: lease_expires_at <= now
    beat = q.heartbeat("c1", lease.lease_id, ttl_s=30.0)
    assert beat["ok"] is False
    task = q.task("c1")
    assert task.state == PENDING and task.lease_id is None
    # The next lease is attempt 2 under a fresh lease id.
    release = q.lease("w2", ttl_s=30.0)
    assert release.attempt == 2
    assert release.lease_id != lease.lease_id


def test_expired_worker_lease_count_drops(q, clock):
    q.enqueue("c1", SPEC)
    q.lease("w1", ttl_s=30.0)
    assert q.worker_info("w1")["leases"] == 1
    clock.advance(31.0)
    q.sweep()
    assert q.worker_info("w1")["leases"] == 0


def test_status_includes_fleet_registry(q, clock):
    q.enqueue("c1", SPEC)
    q.lease("w1", ttl_s=30.0)
    q.drain_worker("w2")
    status = q.status()
    by_name = {w["name"]: w for w in status["workers"]}
    assert by_name["w1"]["state"] == "active"
    assert by_name["w1"]["leases"] == 1
    assert by_name["w2"]["state"] == "draining"
