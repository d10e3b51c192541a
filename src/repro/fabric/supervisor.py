"""The fleet supervisor: liveness, autoscaling, rolling drain/upgrade.

PR 8's fabric gave campaigns at-least-once execution over a durable
leased queue; this module gives the *fleet* a control loop.  Three
design rules keep it honest under the chaos matrix:

* **The registry is the only truth.**  Liveness is a heartbeat *age*
  read from the durable worker registry (via
  :meth:`repro.fabric.queue.WorkQueue.workers`), never a process
  handle.  Drain directives are durable registry state.  A supervisor
  that is SIGKILLed therefore loses nothing — a replacement adopts the
  same fleet by reading the same warehouse, mid-decision.
* **Decisions are deterministic.**  :meth:`FleetSupervisor.tick` is a
  pure function of (registry, backlog, streak counters) under the
  injectable clock: same inputs, same spawns/drains, which is what lets
  the fake-clock tests assert exact scaling behaviour.
* **Scale-down is drain, not kill.**  Shrinking the fleet or rolling a
  new code version never revokes a lease: the victim gets a durable
  drain directive, observes it on its next heartbeat or lease request,
  finishes (or hands back) its work, deregisters, and exits.  Combined
  with content-addressed trial identity, an upgrade mid-campaign loses
  nothing and doubles nothing.

Autoscaling keys off the same per-tenant backlog (pending + leased)
the ``repro_fabric_tenant_backlog`` Prometheus gauges export, so what
the operator's dashboard shows is literally what the supervisor acted
on.  Hysteresis (``scale_up_after`` / ``scale_down_after`` consecutive
ticks) stops a bursty queue from flapping the fleet.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.exec.telemetry import default_clock
from repro.fabric.queue import (
    WORKER_ACTIVE,
    WORKER_DRAINING,
    WORKER_EXITED,
    WorkQueue,
)


@dataclass(frozen=True)
class SupervisorConfig:
    """Fleet policy knobs; every decision in :meth:`FleetSupervisor.tick`
    derives from these plus the registry."""

    #: Fleet size bounds.  ``min_workers`` is kept warm even with an
    #: empty queue; ``max_workers`` caps a backlog spike.
    min_workers: int = 1
    max_workers: int = 4
    #: Target backlog (pending + leased tasks) each worker absorbs.
    backlog_per_worker: int = 2
    #: Consecutive over/under-demand ticks before acting (hysteresis).
    scale_up_after: int = 2
    scale_down_after: int = 3
    #: A worker whose heartbeat age exceeds this is declared dead and
    #: deregistered; its leases recover through normal lease expiry.
    heartbeat_timeout_s: float = 60.0
    #: Code version stamped on workers this supervisor spawns.
    version: str = ""
    #: Prefix for deterministic spawned-worker names.
    name_prefix: str = "fleet"


@dataclass
class FleetDecision:
    """What one :meth:`FleetSupervisor.tick` saw and did."""

    backlog: int = 0
    desired: int = 0
    live: int = 0
    draining: int = 0
    #: Launched by this supervisor but not yet registered.
    starting: List[str] = field(default_factory=list)
    spawned: List[str] = field(default_factory=list)
    drained: List[str] = field(default_factory=list)
    dead: List[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "backlog": self.backlog,
            "desired": self.desired,
            "live": self.live,
            "draining": self.draining,
            "starting": list(self.starting),
            "spawned": list(self.spawned),
            "drained": list(self.drained),
            "dead": list(self.dead),
        }


class FleetSupervisor:
    """Drives a worker fleet against one fabric queue.

    ``spawn(name, version)`` is the only side-effect channel into the
    world: in production it forks a ``repro fabric worker`` process, in
    tests it can register a fake worker row — the supervisor never
    assumes it can reach the process again.  Everything else goes
    through the durable registry.
    """

    def __init__(
        self,
        queue: WorkQueue,
        config: Optional[SupervisorConfig] = None,
        spawn: Optional[Callable[[str, str], object]] = None,
        clock: Callable[[], float] = default_clock,
    ):
        self.queue = queue
        self.config = config or SupervisorConfig()
        self._spawn = spawn
        self._clock = clock
        #: Consecutive ticks demanding more / fewer workers.
        self.up_streak = 0
        self.down_streak = 0
        #: Best-effort handles for processes *this* supervisor spawned.
        #: Never consulted for liveness — a replacement supervisor has
        #: an empty dict and exactly the same authority.
        self.handles: Dict[str, object] = {}
        #: Launch time of each worker this supervisor spawned that has
        #: not registered yet (a new process is still importing).
        self._starting: Dict[str, float] = {}

    # ------------------------------------------------------------ inputs

    def backlog(self) -> int:
        """Pending + leased tasks across tenants — the same number the
        ``repro_fabric_tenant_backlog`` gauges export, summed."""
        tenants = self.queue.status()["tenants"]
        return sum(
            int(t.get("pending", 0)) + int(t.get("leased", 0))
            for t in tenants.values()
        )

    def fleet(self) -> List[dict]:
        return self.queue.workers()

    # ---------------------------------------------------------- decisions

    def _next_name(self, taken: List[str]) -> str:
        """Deterministic fresh worker name: lowest free index under the
        prefix, derived from the registry so a replacement supervisor
        continues the same sequence."""
        used = set(taken)
        index = 0
        while f"{self.config.name_prefix}-{index:03d}" in used:
            index += 1
        return f"{self.config.name_prefix}-{index:03d}"

    def tick(self) -> FleetDecision:
        """One deterministic supervision step.

        Reap dead workers, compute desired fleet size from backlog,
        then act only once the demand signal has persisted past the
        hysteresis streaks.  A worker this supervisor launched that has
        not registered yet counts as capacity, and its name as taken,
        for ``heartbeat_timeout_s`` after its launch; after that it is
        launched again.  Scale-down picks the drain victims
        deterministically: fewest held leases first, then name order,
        so the cheapest worker to release leaves first.
        """
        cfg = self.config
        decision = FleetDecision(backlog=self.backlog())
        workers = self.fleet()

        live: List[dict] = []
        for worker in workers:
            if worker["state"] != WORKER_ACTIVE:
                continue
            if worker["heartbeat_age_s"] > cfg.heartbeat_timeout_s:
                # Dead by heartbeat age: deregister so it stops counting
                # toward capacity.  Its leases expire on their own — the
                # queue's at-least-once contract, not the supervisor,
                # recovers the work.
                self.queue.deregister_worker(worker["name"])
                decision.dead.append(worker["name"])
                self.handles.pop(worker["name"], None)
                continue
            live.append(worker)
        decision.live = len(live)
        decision.draining = sum(
            1 for w in workers if w["state"] == WORKER_DRAINING
        )
        now = self._clock()
        registered = {w["name"] for w in workers}
        self._starting = {
            name: launched
            for name, launched in self._starting.items()
            if name not in registered and now - launched <= cfg.heartbeat_timeout_s
        }
        decision.starting = sorted(self._starting)
        capacity = decision.live + len(decision.starting)

        decision.desired = max(
            cfg.min_workers,
            min(
                cfg.max_workers,
                math.ceil(decision.backlog / max(1, cfg.backlog_per_worker)),
            ),
        )

        if decision.desired > capacity:
            self.up_streak += 1
            self.down_streak = 0
            if self.up_streak >= cfg.scale_up_after:
                taken = [w["name"] for w in workers] + decision.starting
                for _ in range(decision.desired - capacity):
                    name = self._next_name(taken)
                    taken.append(name)
                    self._launch(name)
                    decision.spawned.append(name)
                self.up_streak = 0
        elif decision.desired < decision.live:
            self.down_streak += 1
            self.up_streak = 0
            if self.down_streak >= cfg.scale_down_after:
                victims = sorted(
                    live, key=lambda w: (w["leases"], w["name"])
                )[: decision.live - decision.desired]
                for worker in victims:
                    self.queue.drain_worker(worker["name"])
                    decision.drained.append(worker["name"])
                self.down_streak = 0
        else:
            self.up_streak = 0
            self.down_streak = 0
        return decision

    def _launch(self, name: str) -> None:
        if self._spawn is None:
            return
        self._starting[name] = self._clock()
        handle = self._spawn(name, self.config.version)
        if handle is not None:
            self.handles[name] = handle

    # ------------------------------------------------------------- rolling

    def roll(
        self,
        version: str,
        timeout_s: float = 120.0,
        poll_s: float = 0.25,
        sleep: Callable[[float], None] = time.sleep,
    ) -> dict:
        """Lease-safe rolling upgrade to ``version``, one worker at a
        time: spawn the replacement, wait for its first heartbeat, then
        drain the old worker and wait for it to finish its lease and
        exit.  At every instant the fleet holds at least its pre-roll
        capacity, and no lease is ever revoked — a drained worker
        completes (or hands back) before leaving.

        Returns ``{"replaced": [...], "spawned": [...]}``.  Raises
        ``TimeoutError`` if a replacement never heartbeats or a victim
        never drains within ``timeout_s`` — the roll stops between
        workers, never mid-handoff, so a failed roll leaves a healthy
        mixed-version fleet.
        """
        self.config = SupervisorConfig(
            **{**self.config.__dict__, "version": version}
        )
        stale = sorted(
            w["name"]
            for w in self.fleet()
            if w["state"] == WORKER_ACTIVE and w["version"] != version
        )
        replaced: List[str] = []
        spawned: List[str] = []
        for old in stale:
            taken = [w["name"] for w in self.queue.workers(include_exited=True)]
            fresh = self._next_name(taken + spawned)
            self._launch(fresh)
            spawned.append(fresh)
            self._await(
                lambda: self._is_live(fresh),
                timeout_s,
                poll_s,
                sleep,
                f"replacement worker {fresh} never heartbeat",
            )
            self.queue.drain_worker(old)
            self._await(
                lambda: self._has_left(old),
                timeout_s,
                poll_s,
                sleep,
                f"drained worker {old} never exited",
            )
            replaced.append(old)
            self.handles.pop(old, None)
        return {"replaced": replaced, "spawned": spawned}

    def _is_live(self, name: str) -> bool:
        info = self.queue.worker_info(name)
        return (
            info is not None
            and info["state"] == WORKER_ACTIVE
            and info["heartbeat_age_s"] <= self.config.heartbeat_timeout_s
        )

    def _has_left(self, name: str) -> bool:
        """The worker exited cleanly: its row is gone or marked exited
        with no lease.  Merely ``draining`` is not gone — it may still
        be finishing the lease the roll promised never to revoke."""
        info = self.queue.worker_info(name)
        return info is None or (
            info["state"] == WORKER_EXITED and info["leases"] == 0
        )

    def _await(self, done, timeout_s, poll_s, sleep, what: str) -> None:
        deadline = self._clock() + timeout_s
        while not done():
            if self._clock() >= deadline:
                raise TimeoutError(what)
            sleep(poll_s)

    # ---------------------------------------------------------------- loop

    def run(
        self,
        poll_s: float = 2.0,
        max_ticks: Optional[int] = None,
        should_stop: Callable[[], bool] = lambda: False,
        sleep: Callable[[float], None] = time.sleep,
    ) -> List[FleetDecision]:
        """Supervision loop: tick, sleep, repeat.  ``max_ticks`` bounds
        it for tests and smoke runs; ``should_stop`` lets a caller wire
        a shutdown flag."""
        decisions: List[FleetDecision] = []
        ticks = 0
        while not should_stop():
            decisions.append(self.tick())
            ticks += 1
            if max_ticks is not None and ticks >= max_ticks:
                break
            sleep(poll_s)
        return decisions


__all__ = ["FleetSupervisor", "SupervisorConfig", "FleetDecision"]
