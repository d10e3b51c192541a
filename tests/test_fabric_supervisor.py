"""FleetSupervisor: deterministic autoscaling, reaping and rolling.

Every test drives the supervisor and its queue off one shared fake
clock, so heartbeat ages, hysteresis streaks and roll deadlines are
exact — no sleeps, no wall-clock flake.  The ``spawn`` callable stands
in for forking a worker process by registering the worker row directly,
which is precisely what a real worker's first heartbeat does.
"""

import pytest

from repro.fabric.queue import WorkQueue
from repro.fabric.supervisor import FleetSupervisor, SupervisorConfig

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


def make_supervisor(q, clock, **overrides):
    spawned = []

    def spawn(name, version):
        spawned.append((name, version))
        q.register_worker(name, version=version)
        return f"proc-{name}"

    config = SupervisorConfig(**overrides)
    return FleetSupervisor(q, config=config, spawn=spawn, clock=clock), spawned


def backlog(q, n):
    for i in range(n):
        q.enqueue(f"c{i}", SPEC)


def test_scale_up_waits_for_hysteresis(q, clock):
    sup, spawned = make_supervisor(
        q, clock, min_workers=0, max_workers=4, backlog_per_worker=2,
        scale_up_after=2,
    )
    backlog(q, 6)
    first = sup.tick()
    assert first.desired == 3 and first.spawned == []
    second = sup.tick()
    assert second.spawned == ["fleet-000", "fleet-001", "fleet-002"]
    assert [name for name, _ in spawned] == second.spawned
    # Demand satisfied: the next tick is a no-op.
    third = sup.tick()
    assert third.live == 3 and third.spawned == []


def test_desired_fleet_clamped_to_max(q, clock):
    sup, _ = make_supervisor(
        q, clock, min_workers=0, max_workers=2, backlog_per_worker=1,
        scale_up_after=1,
    )
    backlog(q, 10)
    decision = sup.tick()
    assert decision.desired == 2
    assert decision.spawned == ["fleet-000", "fleet-001"]


def test_min_workers_kept_warm_on_empty_queue(q, clock):
    sup, _ = make_supervisor(
        q, clock, min_workers=1, max_workers=4, scale_up_after=1,
    )
    decision = sup.tick()
    assert decision.backlog == 0
    assert decision.desired == 1
    assert decision.spawned == ["fleet-000"]


def test_spawn_carries_fleet_version(q, clock):
    sup, spawned = make_supervisor(
        q, clock, min_workers=1, scale_up_after=1, version="v7",
    )
    sup.tick()
    assert spawned == [("fleet-000", "v7")]
    assert q.worker_info("fleet-000")["version"] == "v7"


def test_scale_down_drains_fewest_leases_first(q, clock):
    sup, _ = make_supervisor(
        q, clock, min_workers=1, max_workers=4, backlog_per_worker=1,
        scale_down_after=2,
    )
    q.register_worker("w-busy")
    q.register_worker("w-idle")
    q.enqueue("c0", SPEC)
    lease = q.lease("w-busy", ttl_s=300.0)
    assert lease.campaign == "c0"
    q.complete("c0", lease.lease_id, {})
    q.enqueue("c1", SPEC)
    assert q.lease("w-busy", ttl_s=300.0).campaign == "c1"
    # Backlog 1, two live workers, backlog_per_worker 1 -> desired 1.
    first = sup.tick()
    assert first.desired == 1 and first.drained == []
    second = sup.tick()
    assert second.drained == ["w-idle"]
    assert q.worker_info("w-idle")["state"] == "draining"
    assert q.worker_info("w-busy")["state"] == "active"


def test_flapping_demand_resets_streaks(q, clock):
    sup, _ = make_supervisor(
        q, clock, min_workers=0, max_workers=4, backlog_per_worker=1,
        scale_up_after=3,
    )
    backlog(q, 2)
    sup.tick()
    sup.tick()
    assert sup.up_streak == 2
    # Demand evaporates before the third tick: no spawn ever happens.
    for i in range(2):
        lease = q.lease("ghost", ttl_s=300.0)
        q.complete(lease.campaign, lease.lease_id, {})
    q.deregister_worker("ghost")
    decision = sup.tick()
    assert decision.spawned == []
    assert sup.up_streak == 0


def test_dead_worker_reaped_by_heartbeat_age(q, clock):
    sup, _ = make_supervisor(
        q, clock, min_workers=0, heartbeat_timeout_s=60.0,
    )
    q.register_worker("w1")
    clock.advance(61.0)
    decision = sup.tick()
    assert decision.dead == ["w1"]
    assert decision.live == 0
    assert q.worker_info("w1")["state"] == "exited"


def test_reaped_worker_lease_recovers_via_expiry(q, clock):
    """The supervisor only deregisters a dead worker; its lease comes
    back through the queue's own expiry, not a revocation."""
    sup, _ = make_supervisor(
        q, clock, min_workers=0, heartbeat_timeout_s=60.0,
    )
    q.enqueue("c0", SPEC)
    q.lease("w1", ttl_s=120.0)
    clock.advance(61.0)
    decision = sup.tick()
    assert decision.dead == ["w1"]
    # Not expired yet: still leased, nothing doubled.
    assert q.task("c0").state == "leased"
    clock.advance(60.0)
    q.sweep()
    assert q.task("c0").state == "pending"


def test_next_name_skips_taken_indices(q, clock):
    sup, _ = make_supervisor(
        q, clock, min_workers=3, scale_up_after=1,
    )
    q.register_worker("fleet-001")
    decision = sup.tick()
    assert decision.spawned == ["fleet-000", "fleet-002"]


def test_replacement_supervisor_adopts_registry(q, clock):
    """A supervisor with empty process handles (a restarted or failed-
    over one) reads the same fleet and makes the same decisions."""
    sup, _ = make_supervisor(
        q, clock, min_workers=0, max_workers=4, backlog_per_worker=1,
        scale_up_after=1,
    )
    backlog(q, 2)
    sup.tick()
    replacement = FleetSupervisor(
        q,
        config=SupervisorConfig(min_workers=0, max_workers=4,
                                backlog_per_worker=1),
        clock=clock,
    )
    assert replacement.handles == {}
    decision = replacement.tick()
    assert decision.live == 2
    assert decision.spawned == [] and decision.drained == []


def test_unregistered_launch_is_not_launched_again(q, clock):
    """A launched worker that is still importing is not in the registry
    yet.  It counts as capacity until its grace period ends, so ticks
    every 0.1 s launch it once, not once per tick, and launch it again
    only once the grace period is over."""
    launched = []
    sup = FleetSupervisor(
        q,
        config=SupervisorConfig(
            min_workers=1, scale_up_after=1, heartbeat_timeout_s=5.0
        ),
        spawn=lambda name, version: launched.append(name),
        clock=clock,
    )
    first = sup.tick()
    assert first.spawned == ["fleet-000"]
    for _ in range(49):
        clock.advance(0.1)
        decision = sup.tick()
        assert decision.spawned == [] and decision.starting == ["fleet-000"]
    assert launched == ["fleet-000"]
    clock.advance(0.2)  # 5.1 s after the launch
    assert sup.tick().spawned == ["fleet-000"]
    assert launched == ["fleet-000", "fleet-000"]


def test_registered_launch_leaves_starting(q, clock):
    sup, _ = make_supervisor(q, clock, min_workers=1, scale_up_after=1)
    assert sup.tick().spawned == ["fleet-000"]
    decision = sup.tick()
    assert decision.live == 1 and decision.starting == []
    assert decision.spawned == []


def _world_sleep(clock, q):
    """A fake sleep that also plays the world: time passes and any
    draining worker finishes up and exits."""

    def sleep(dt):
        clock.advance(dt)
        for worker in q.workers():
            if worker["state"] == "draining":
                q.deregister_worker(worker["name"])

    return sleep


def test_roll_replaces_stale_workers_one_at_a_time(q, clock):
    sup, spawned = make_supervisor(q, clock, min_workers=0)
    q.register_worker("fleet-000", version="v1")
    q.register_worker("fleet-001", version="v1")
    result = sup.roll(
        "v2", timeout_s=30.0, poll_s=1.0, sleep=_world_sleep(clock, q)
    )
    assert result["replaced"] == ["fleet-000", "fleet-001"]
    assert len(result["spawned"]) == 2
    assert all(version == "v2" for _, version in spawned)
    actives = [w for w in q.workers() if w["state"] == "active"]
    assert {w["version"] for w in actives} == {"v2"}
    # Capacity never dipped: two fresh workers exist for two retired.
    assert len(actives) == 2


def test_roll_skips_current_version(q, clock):
    sup, spawned = make_supervisor(q, clock, min_workers=0)
    q.register_worker("fleet-000", version="v2")
    result = sup.roll(
        "v2", timeout_s=30.0, poll_s=1.0, sleep=_world_sleep(clock, q)
    )
    assert result == {"replaced": [], "spawned": []}
    assert spawned == []


def test_roll_times_out_when_victim_never_exits(q, clock):
    sup, _ = make_supervisor(q, clock, min_workers=0)
    q.register_worker("fleet-000", version="v1")

    def sleep(dt):
        clock.advance(dt)  # time passes, the stuck worker does not

    with pytest.raises(TimeoutError):
        sup.roll("v2", timeout_s=5.0, poll_s=1.0, sleep=sleep)
    # The roll stopped between workers: the fleet is mixed-version but
    # healthy, with the replacement live and the victim still draining.
    assert q.worker_info("fleet-000")["state"] == "draining"
    assert q.worker_info("fleet-001")["state"] == "active"
