"""``repro chaos``: the pipeline-hardening proof, run as a campaign.

For every fault class of a named matrix this module runs a small but
real experiment campaign (the same trial jobs, executor, warehouse and
service code paths production uses) under that class's deterministic
:class:`~repro.faults.plan.FaultPlan`, then checks the **chaos
invariant** against a fault-free baseline:

    every trial either lands in the warehouse *bit-identical* to the
    fault-free run, or surfaces as a *typed, resumable* failure (a
    ``failed``/``crashed``/``timeout``/``quarantined`` job record, or a
    sideline spill record) — never silently missing, duplicated, or
    corrupted.

After the faulted run, the recovery path the docs prescribe is executed
for real — replay the sideline spill with
:func:`repro.store.ingest.ingest_sideline`, then re-run the campaign
fault-free over the surviving store — and the recovered store must equal
the baseline exactly.  Journal-fault classes additionally prove the
manifest stays ingestable (torn lines are skipped, not fatal).

Everything is seeded: a failing chaos run reproduces with the same
``--seed``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.faults import inject
from repro.faults.breaker import reset_breakers
from repro.faults.plan import (
    FAULT_DRAIN_DURING_LEASE,
    FAULT_HTTP_DISCONNECT,
    FAULT_LEASE_EXPIRY,
    FAULT_WORKER_HANG,
    FAULT_WORKER_SIGKILL,
    FaultPlan,
    fault_matrix,
)
from repro.faults.retry import RetryPolicy, default_sleep

#: Statuses that count as "typed, resumable failure" under the invariant.
_TYPED_FAILURES = ("failed", "crashed", "timeout", "quarantined")

#: Snapshot of one trial payload: (dtype, shape, raw bytes).
_Snap = Tuple[str, Tuple[int, ...], bytes]


def _snap(value: np.ndarray) -> _Snap:
    array = np.ascontiguousarray(np.asarray(value))
    return (array.dtype.str, tuple(array.shape), array.tobytes())


def _wait_until(
    predicate: Callable[[], bool], timeout_s: float, poll_s: float
) -> bool:
    """Poll ``predicate`` every ``poll_s`` seconds; True once it holds,
    False when ``timeout_s`` passes first."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        default_sleep(poll_s)
    return False


@dataclass
class FaultOutcome:
    """What happened (and what was proven) for one fault class."""

    fault: str
    fires: int = 0
    typed_failures: List[str] = field(default_factory=list)
    #: Cache keys of jobs that ended in a typed failure — the invariant
    #: accepts these as "accounted for" when absent from the store.
    accounted_keys: set = field(default_factory=set)
    spilled: int = 0
    violations: List[str] = field(default_factory=list)
    recovered: bool = False
    note: str = ""

    def ok(self) -> bool:
        return not self.violations and self.recovered

    def summary(self) -> str:
        verdict = "ok" if self.ok() else "FAIL"
        parts = [f"{self.fault:<18} {verdict}", f"fires={self.fires}"]
        if self.typed_failures:
            parts.append(f"typed_failures={len(self.typed_failures)}")
        if self.spilled:
            parts.append(f"spilled={self.spilled}")
        if self.note:
            parts.append(self.note)
        line = "  ".join(parts)
        for violation in self.violations:
            line += f"\n    violation: {violation}"
        return line


@dataclass
class ChaosReport:
    """The full ``repro chaos`` result across a fault matrix."""

    matrix: str
    seed: int
    baseline_trials: int
    outcomes: List[FaultOutcome] = field(default_factory=list)

    def ok(self) -> bool:
        return bool(self.outcomes) and all(o.ok() for o in self.outcomes)

    def summary(self) -> str:
        lines = [
            f"chaos matrix {self.matrix!r} (seed {self.seed}, "
            f"{self.baseline_trials} baseline trials):"
        ]
        lines += ["  " + o.summary() for o in self.outcomes]
        lines.append("chaos: " + ("PASS" if self.ok() else "FAIL"))
        return "\n".join(lines)


def _chaos_jobs(duration_s: float, trials: int):
    from repro.exec.jobs import measurement_trial_jobs
    from repro.harness.config import ExperimentConfig, NetworkCondition

    condition = NetworkCondition(bandwidth_mbps=8, rtt_ms=20, buffer_bdp=0.6)
    config = ExperimentConfig(duration_s=float(duration_s), trials=int(trials))
    return measurement_trial_jobs("quiche", "cubic", condition, config)


def _topology_joblist(duration_s: float, trials: int):
    """The topology-campaign trial jobs the topology fault class runs.

    Same shape of work as any ``"topology"`` campaign cell — a dumbbell
    TopologySpec compiled and measured through the content-addressed
    trial-job path — so the chaos invariant covers the topo subsystem
    with the exact machinery every other class uses.
    """
    from repro.topo.campaign import topology_trial_jobs
    from repro.topo.spec import dumbbell

    return topology_trial_jobs(
        dumbbell("cubic"), float(duration_s), int(trials), base_seed=0
    )


def _peer_joblist(duration_s: float, trials: int):
    """The peer-conformance trial jobs the peer fault class runs.

    Same shape of work as any ``"peer_conformance"`` campaign cell — a
    two-CCA peer group's self-competition trials through the
    content-addressed trial-job path — so the chaos invariant covers
    the ccax subsystem with the exact machinery every other class uses.
    """
    from dataclasses import replace

    from repro.ccax.campaign import peer_trial_jobs
    from repro.harness import scenarios
    from repro.harness.config import ExperimentConfig

    config = replace(
        ExperimentConfig(), duration_s=float(duration_s), trials=int(trials)
    )
    return peer_trial_jobs(
        ["bbr3", "gcc"], scenarios.shallow_buffer(), config
    )


def _baseline(joblist) -> Dict[str, _Snap]:
    from repro.exec import Executor
    from repro.harness.cache import ResultCache

    # A fresh cache: the baseline is really recomputed.
    cache = ResultCache()
    with Executor(jobs=1, cache=cache) as executor:
        values = executor.run(joblist, campaign="chaos-baseline")
    return {
        job.key: _snap(value)
        for job, value in zip(joblist, values)
        if job.key and value is not None
    }


def _check_store(
    store_path: Path,
    baseline: Dict[str, _Snap],
    accounted: set,
    sideline_keys: set,
) -> Tuple[List[str], List[str]]:
    """Invariant check: returns (violations, keys missing from the store)."""
    from repro.store.warehouse import ResultStore, StoreError

    violations: List[str] = []
    missing: List[str] = []
    with ResultStore(store_path) as store:
        for key, (dtype, shape, raw) in sorted(baseline.items()):
            try:
                value = store.get_trial(key, strict=True)
            except StoreError as exc:
                violations.append(f"corrupt payload for {key}: {exc}")
                continue
            if value is None:
                missing.append(key)
                if key not in accounted and key not in sideline_keys:
                    violations.append(
                        f"trial {key} silently missing (no typed failure, "
                        "no sideline record)"
                    )
            elif _snap(value) != (dtype, shape, raw):
                violations.append(
                    f"trial {key} differs from the fault-free baseline"
                )
    return violations, missing


def _sideline_keys(path: Path) -> set:
    import json

    keys = set()
    if not path.exists():
        return keys
    with open(path, "r") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("kind") == "trial":
                keys.add(record.get("key"))
    return keys


def _run_faulted(
    fault: str,
    plan: FaultPlan,
    joblist,
    classdir: Path,
    jobs: int,
    outcome: FaultOutcome,
) -> None:
    """One campaign under ``plan``, recording what the pipeline reported."""
    from repro.exec import Executor
    from repro.exec.executor import ExecutionError
    from repro.store.cache import StoreCache
    from repro.store.warehouse import ResultStore

    # Worker faults need a real pool (the fault site lives in the worker
    # bootstrap); everything else runs serial to keep store/journal fault
    # schedules single-threaded and exactly reproducible.
    class_jobs = jobs if fault.startswith("worker-") else 1
    timeout_s = 3.0 if fault == FAULT_WORKER_HANG else 30.0
    with inject.active_plan(plan) as injector:
        store = ResultStore(classdir / "store.db")
        cache = StoreCache(store)
        executor = Executor(
            jobs=class_jobs,
            cache=cache,
            timeout_s=timeout_s,
            retry=RetryPolicy(max_attempts=3, backoff_s=0.01),
            fault_plan=plan,
            store=store,
            store_run=f"chaos-{fault}",
            manifest_path=classdir / "manifest.jsonl",
        )
        try:
            executor.run(joblist, campaign=f"chaos-{fault}")
        except ExecutionError as exc:
            outcome.typed_failures = [
                f"{r.label or r.index}: {r.status} ({r.error})"
                for r in exc.failures
            ]
            outcome.accounted_keys = {
                joblist[r.index].key for r in exc.failures
            }
        finally:
            retried = sum(1 for r in executor.last_records if r.retried)
            if retried:
                outcome.note = f"retried={retried}"
            executor.close()
            if executor.store_sink is not None:
                outcome.spilled = executor.store_sink.spilled
            store.close()
        outcome.fires = injector.fire_count()


def _recover(
    joblist, classdir: Path, baseline: Dict[str, _Snap], outcome: FaultOutcome
) -> None:
    """Run the documented recovery: replay sideline, re-run fault-free."""
    from repro.exec import Executor
    from repro.store.cache import StoreCache
    from repro.store.ingest import ingest_sideline
    from repro.store.warehouse import ResultStore

    reset_breakers()  # recovery starts with a healthy circuit
    store_path = classdir / "store.db"
    sideline = Path(f"{store_path}.sideline.jsonl")
    with ResultStore(store_path) as store:
        if sideline.exists():
            report = ingest_sideline(store, sideline)
            outcome.note = (
                (outcome.note + "  " if outcome.note else "")
                + f"sideline replayed: {report.trials} trials "
                f"(+{report.trials_deduped} dup)"
            )
        cache = StoreCache(store)
        with Executor(jobs=1, cache=cache, store=store,
                      store_run="chaos-recovery") as executor:
            executor.run(joblist, campaign="chaos-recovery")
    violations, missing = _check_store(store_path, baseline, set(), set())
    if violations or missing:
        outcome.violations += [
            f"post-recovery: {v}" for v in violations
        ] + [f"post-recovery: {k} still missing" for k in missing]
    else:
        outcome.recovered = True


def _check_manifest_ingestable(classdir: Path, outcome: FaultOutcome) -> None:
    """Journal-fault classes: a torn manifest must ingest, not explode."""
    from repro.store.ingest import ingest_manifest
    from repro.store.warehouse import ResultStore

    manifest = classdir / "manifest.jsonl"
    if not manifest.exists():
        return
    try:
        with ResultStore(classdir / "ingest-check.db") as scratch:
            report = ingest_manifest(scratch, manifest)
    except Exception as exc:  # noqa: BLE001 - any crash is the violation
        outcome.violations.append(
            f"manifest ingest crashed on the torn journal: "
            f"{type(exc).__name__}: {exc}"
        )
    else:
        if report.skipped_lines:
            outcome.note = (
                outcome.note + " " if outcome.note else ""
            ) + f"manifest: {report.skipped_lines} torn lines skipped"


def _run_service_class(
    plan: FaultPlan,
    classdir: Path,
    duration_s: float,
    trials: int,
    outcome: FaultOutcome,
) -> None:
    """http-disconnect: a real client/service round trip under resets.

    The client's first request eats an injected connection reset; the
    invariant here is typed handling end-to-end — ``submit_blocking``
    retries through a :class:`ServiceError` (never a raw socket error),
    the campaign completes, and every stored payload decodes.
    """
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.server import ServiceApp
    from repro.store.warehouse import ResultStore, StoreError

    store_path = classdir / "store.db"
    app = ServiceApp(store_path=str(store_path), port=0, workers=1)
    app.start()
    try:
        client = ServiceClient(app.url, timeout_s=30.0)
        spec = {
            "kind": "matrix",
            "stacks": ["quiche"],
            "ccas": ["cubic"],
            "conditions": [
                {"bandwidth_mbps": 8, "rtt_ms": 20, "buffer_bdp": 0.6}
            ],
            "duration_s": float(duration_s),
            "trials": int(trials),
            "run": "chaos-http",
        }
        with inject.active_plan(plan) as injector:
            try:
                campaign = client.submit_blocking(
                    spec,
                    retry=RetryPolicy(
                        max_attempts=None, backoff_s=0.05,
                        backoff_cap_s=1.0, deadline_s=60.0,
                    ),
                )
            except ServiceError as exc:
                outcome.violations.append(
                    f"submit did not survive the disconnect: {exc}"
                )
                return
            final = client.wait(campaign["id"], timeout_s=300.0,
                                raise_on_failure=False)
            outcome.fires = injector.fire_count()
        if outcome.fires == 0:
            outcome.violations.append("disconnect fault never fired")
        if final["state"] != "done":
            outcome.typed_failures.append(
                f"campaign {final['id']}: {final['state']} ({final['error']})"
            )
            outcome.violations.append(
                f"campaign did not complete after the disconnect: "
                f"{final['state']}"
            )
            return
    finally:
        app.stop(drain=False)
    with ResultStore(store_path) as store:
        keys = store.trial_keys()
        if not keys:
            outcome.violations.append("campaign stored no trials")
        for key in keys:
            try:
                store.get_trial(key, strict=True)
            except StoreError as exc:
                outcome.violations.append(f"corrupt payload for {key}: {exc}")
    if not outcome.violations:
        outcome.recovered = True
        outcome.note = "service round trip survived the reset"


def _fabric_spec(duration_s: float, trials: int) -> dict:
    """The campaign the fabric fault classes run: enough work that a
    lease reliably outlives its TTL mid-execution."""
    return {
        "kind": "conformance",
        "stacks": ["quiche"],
        "ccas": ["cubic"],
        "duration_s": float(max(duration_s, 2.0)),
        "trials": max(int(trials), 2),
        "run": "chaos-fabric",
    }


def _settled(scheduler, *job_ids: str) -> bool:
    """True once every named campaign has reached a terminal state."""
    from repro.service.scheduler import TERMINAL_STATES

    return all(
        scheduler.job(job_id).state in TERMINAL_STATES for job_id in job_ids
    )


def _wait_settled(scheduler, *job_ids: str) -> bool:
    """Wait (up to 300 s) until every named campaign has settled."""
    return _wait_until(lambda: _settled(scheduler, *job_ids), 300.0, 0.05)


def _store_snaps(path: Path) -> Dict[str, _Snap]:
    from repro.store.warehouse import ResultStore

    with ResultStore(path) as store:
        return {key: _snap(store.get_trial(key)) for key in store.trial_keys()}


def _fabric_baseline(spec: dict, basedir: Path) -> Dict[str, _Snap]:
    """Run the fabric chaos campaign fault-free through the
    single-process scheduler; its store is the bit-identity reference."""
    return _fabric_baselines([spec], basedir)


def _fabric_baselines(specs: List[dict], basedir: Path) -> Dict[str, _Snap]:
    from repro.service.scheduler import Scheduler
    from repro.service.specs import parse_campaign_spec

    basedir.mkdir(parents=True, exist_ok=True)
    store_path = basedir / "baseline.db"
    scheduler = Scheduler(str(store_path), workers=1)
    for spec in specs:
        _wait_settled(scheduler, scheduler.submit(parse_campaign_spec(spec)).id)
    scheduler.shutdown(drain=True, timeout=30.0)
    return _store_snaps(store_path)


def _check_fabric_job(
    store_path: Path,
    campaign_id: str,
    coordinator,
    outcome: FaultOutcome,
    min_attempts: int = 2,
    max_attempts: Optional[int] = None,
) -> None:
    """One campaign's half of the fabric invariant: it completed, and
    its lease turned over exactly as the fault class demands."""
    from repro.fabric.queue import WorkQueue

    job = coordinator.job(campaign_id)
    if job is None or job.state != "done":
        state = job.state if job else "missing"
        outcome.violations.append(
            f"campaign did not complete after the fault: {state}"
        )
    with WorkQueue(str(store_path)) as q:
        task = q.task(campaign_id)
    attempts = task.attempts if task else 0
    if attempts < min_attempts:
        outcome.violations.append(
            f"the lease never turned over (attempts={attempts})"
        )
    elif max_attempts is not None and attempts > max_attempts:
        outcome.violations.append(
            f"the lease turned over under the fault "
            f"(attempts={attempts}) — work ran twice"
        )
    else:
        outcome.note = (
            outcome.note + "  " if outcome.note else ""
        ) + f"attempts={attempts}"


def _check_fabric_outcome(
    classdir: Path,
    campaign_id: str,
    coordinator,
    baseline: Dict[str, _Snap],
    outcome: FaultOutcome,
) -> None:
    """The fabric invariant: campaign done after >= 2 lease attempts,
    and the store matches the fault-free baseline bit-for-bit."""
    _check_fabric_job(
        classdir / "store.db", campaign_id, coordinator, outcome
    )
    violations, missing = _check_store(
        classdir / "store.db", baseline, set(), set()
    )
    outcome.violations += violations
    outcome.violations += [f"trial {k} missing after recovery" for k in missing]
    if not outcome.violations:
        outcome.recovered = True


def _run_lease_expiry_class(
    plan: FaultPlan,
    classdir: Path,
    duration_s: float,
    trials: int,
    outcome: FaultOutcome,
) -> None:
    """lease-expiry: attempt 1's heartbeats are all lost, the lease
    expires mid-campaign, attempt 2 re-runs it; the stale attempt-1
    completion must dedupe ('duplicate'), never double-write."""
    from repro.fabric.coordinator import Coordinator
    from repro.fabric.worker import LocalTransport, worker_threads
    from repro.service.specs import parse_campaign_spec

    spec = _fabric_spec(duration_s, trials)
    baseline = _fabric_baseline(spec, classdir / "baseline")
    store_path = classdir / "store.db"
    coordinator = Coordinator(
        str(store_path), lease_ttl_s=0.4, max_attempts=5
    )
    first_leases: set = set()
    stale_outcomes: List[str] = []

    class _LateFirstCompletion(LocalTransport):
        # Attempt 1's completion is held on the wire until another
        # attempt has settled the campaign: a campaign that runs faster
        # than the TTL must not settle before its lease expires.
        def lease(self, *args, **kwargs):
            lease = super().lease(*args, **kwargs)
            if lease and lease.get("attempt") == 1:
                first_leases.add(lease["lease_id"])
            return lease

        def complete(self, campaign, lease_id, summary, bundle):
            if lease_id not in first_leases:
                return super().complete(campaign, lease_id, summary, bundle)
            _wait_until(lambda: _settled(coordinator, campaign), 60.0, 0.05)
            reply = super().complete(campaign, lease_id, summary, bundle)
            stale_outcomes.append(reply["outcome"])
            return reply

    try:
        with inject.active_plan(plan) as injector:
            job = coordinator.submit(parse_campaign_spec(spec))
            with worker_threads(
                coordinator, ["chaos-lease-w1", "chaos-lease-w2"],
                ttl_s=0.4, transport=_LateFirstCompletion,
            ):
                _wait_settled(coordinator, job.id)
            outcome.fires = injector.fire_count()
        if outcome.fires == 0:
            outcome.violations.append("lease-expiry fault never fired")
        outcome.violations += [
            f"stale attempt-1 completion was not deduped: {stale}"
            for stale in stale_outcomes
            if stale != "duplicate"
        ]
        _check_fabric_outcome(
            classdir, job.id, coordinator, baseline, outcome
        )
    finally:
        coordinator.shutdown(drain=False)


def _run_worker_sigkill_class(
    plan: FaultPlan,
    classdir: Path,
    duration_s: float,
    trials: int,
    outcome: FaultOutcome,
) -> None:
    """worker-sigkill: a real ``repro fabric worker`` subprocess is
    SIGKILLed mid-lease (no cleanup, no goodbye); the lease expires and
    a second worker finishes the campaign bit-identically."""
    import os
    import signal
    import subprocess
    import sys

    from repro.fabric.coordinator import Coordinator
    from repro.fabric.worker import worker_threads
    from repro.service.server import ServiceApp
    from repro.service.specs import parse_campaign_spec

    spec = _fabric_spec(duration_s, trials)
    baseline = _fabric_baseline(spec, classdir / "baseline")
    store_path = classdir / "store.db"
    coordinator = Coordinator(
        str(store_path), lease_ttl_s=1.0, max_attempts=5
    )
    app = ServiceApp(str(store_path), port=0, scheduler=coordinator)
    app.start()
    proc = None
    try:
        job = coordinator.submit(parse_campaign_spec(spec))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "fabric", "worker",
                "--url", app.url, "--store", str(store_path),
                "--ttl", "1.0", "--poll", "0.05",
                "--name", "chaos-victim",
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        # Kill the instant the victim holds the lease: mid-campaign,
        # trials in flight, nothing flushed.
        leased = _wait_until(
            lambda: bool(coordinator.fabric_status()["leases"]), 60.0, 0.02
        )
        if not leased:
            outcome.violations.append(
                "victim worker never leased the task"
            )
            return
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30.0)
        outcome.fires = 1  # the kill is the (process-level) fault
        with worker_threads(coordinator, ["chaos-rescuer"], ttl_s=1.0):
            _wait_settled(coordinator, job.id)
        _check_fabric_outcome(
            classdir, job.id, coordinator, baseline, outcome
        )
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
        app.stop(drain=False)


def _run_drain_during_lease_class(
    plan: FaultPlan,
    classdir: Path,
    duration_s: float,
    trials: int,
    outcome: FaultOutcome,
) -> None:
    """drain-during-lease: the leaseholder gets a durable drain
    directive mid-lease.  It must finish that lease (attempts stays 1 —
    nothing handed over, nothing doubled), deregister and exit; a
    second worker started after the drain absorbs the remaining
    campaign.  The store must match the fault-free baseline exactly."""
    from repro.fabric.coordinator import Coordinator
    from repro.fabric.worker import worker_threads
    from repro.service.specs import parse_campaign_spec

    spec_a = _fabric_spec(duration_s, trials)
    spec_b = dict(
        _fabric_spec(duration_s + 0.5, trials), run="chaos-fabric-b"
    )
    baseline = _fabric_baselines([spec_a, spec_b], classdir / "baseline")
    store_path = classdir / "store.db"
    coordinator = Coordinator(str(store_path), lease_ttl_s=10.0, max_attempts=3)
    try:
        job_a = coordinator.submit(parse_campaign_spec(spec_a))
        job_b = coordinator.submit(parse_campaign_spec(spec_b))
        seen_owners: Dict[str, set] = {}

        def both_settled() -> bool:
            for lease in coordinator.fabric_status()["leases"]:
                seen_owners.setdefault(
                    lease["campaign"], set()
                ).add(lease["owner"])
            return _settled(coordinator, job_a.id, job_b.id)

        with worker_threads(
            coordinator, ["chaos-drain-victim"], ttl_s=10.0
        ) as [(victim, victim_thread)]:
            # Wait until the victim actually holds a lease, then drain
            # it mid-flight.
            leased = _wait_until(
                lambda: any(
                    l["owner"] == victim.name
                    for l in coordinator.fabric_status()["leases"]
                ),
                60.0, 0.02,
            )
            if not leased:
                outcome.violations.append("victim never held a lease")
                return
            coordinator.drain_worker(victim.name)
            outcome.fires = 1
            with worker_threads(
                coordinator, ["chaos-drain-rescuer"], ttl_s=10.0
            ):
                _wait_until(both_settled, 300.0, 0.05)
                # The drained victim must exit on its own (never killed).
                victim_thread.join(timeout=60.0)
                if victim_thread.is_alive():
                    outcome.violations.append(
                        "drained worker never exited on its own"
                    )
                elif not victim.drained:
                    outcome.violations.append(
                        "victim exited without observing the drain directive"
                    )
        # The drained worker deregistered: no active registry row left.
        active = [
            w["name"]
            for w in coordinator.workers()
            if w["name"] == victim.name
        ]
        if active:
            outcome.violations.append(
                f"drained worker still registered: {active}"
            )
        # Its lease was finished, not handed over: exactly one attempt.
        _check_fabric_job(
            store_path, job_a.id, coordinator, outcome,
            min_attempts=1, max_attempts=1,
        )
        _check_fabric_job(
            store_path, job_b.id, coordinator, outcome,
            min_attempts=1, max_attempts=1,
        )
        # The rescuer (not the drained victim) ran the second campaign:
        # a draining worker's lease request gets the exit directive, so
        # the victim must never appear as job B's leaseholder.
        if victim.name in seen_owners.get(job_b.id, set()):
            outcome.violations.append(
                "drained worker leased new work after the directive"
            )
        violations, missing = _check_store(
            store_path, baseline, set(), set()
        )
        outcome.violations += violations
        outcome.violations += [
            f"trial {k} missing after the drain" for k in missing
        ]
        if not outcome.violations:
            outcome.recovered = True
    finally:
        coordinator.shutdown(drain=False)


#: Fault classes with their own campaign harness (service, fabric);
#: every other class runs the local executor campaign in run_chaos.
_CLASS_RUNNERS = {
    FAULT_HTTP_DISCONNECT: _run_service_class,
    FAULT_LEASE_EXPIRY: _run_lease_expiry_class,
    FAULT_WORKER_SIGKILL: _run_worker_sigkill_class,
    FAULT_DRAIN_DURING_LEASE: _run_drain_during_lease_class,
}


def run_chaos(
    matrix: str = "smoke",
    workdir: Optional[Union[str, Path]] = None,
    duration_s: float = 2.0,
    trials: int = 1,
    jobs: int = 2,
    seed: int = 0,
    log: Optional[Callable[[str], None]] = None,
) -> ChaosReport:
    """Run the chaos campaign for one named fault matrix.

    Returns a :class:`ChaosReport`; ``report.ok()`` is the CI gate.
    ``workdir`` (a scratch directory is created when omitted) receives
    one subdirectory per fault class with its store, manifest and any
    sideline spill — kept for post-mortem when a class fails.
    """
    import tempfile

    def say(message: str) -> None:
        if log is not None:
            log(message)

    if workdir is None:
        workdir = Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    resolved = fault_matrix(matrix, seed=seed)
    joblist = _chaos_jobs(duration_s, trials)
    say(f"chaos: baseline campaign ({len(joblist)} jobs)...")
    baseline = _baseline(joblist)
    report = ChaosReport(
        matrix=matrix, seed=seed, baseline_trials=len(baseline)
    )

    for fault, plan in resolved.plans.items():
        say(f"chaos: injecting {fault} ({plan.describe()})")
        classdir = workdir / fault
        classdir.mkdir(parents=True, exist_ok=True)
        outcome = FaultOutcome(fault=fault)
        reset_breakers()
        try:
            runner = _CLASS_RUNNERS.get(fault)
            if runner is not None:
                runner(plan, classdir, duration_s, trials, outcome)
            else:
                _run_faulted(fault, plan, joblist, classdir, jobs, outcome)
                accounted = getattr(outcome, "accounted_keys", set())
                sideline_keys = _sideline_keys(
                    Path(f"{classdir / 'store.db'}.sideline.jsonl")
                )
                violations, _missing = _check_store(
                    classdir / "store.db", baseline, accounted, sideline_keys
                )
                outcome.violations += violations
                _check_manifest_ingestable(classdir, outcome)
                _recover(joblist, classdir, baseline, outcome)
        finally:
            inject.deactivate()
            reset_breakers()
        say("chaos: " + outcome.summary().replace("\n", "\nchaos: "))
        report.outcomes.append(outcome)

    # Campaign-kind classes ride along in every matrix: the same
    # store-locked schedule against repro.topo and repro.ccax trial
    # jobs, proving the bit-identical-or-typed-failure invariant holds
    # for each newer campaign kind with exactly the machinery used
    # above.
    from repro.faults.plan import FAULT_STORE_LOCKED, _single_class_plan

    ride_alongs = (
        ("topology", _topology_joblist),
        ("peer_conformance", _peer_joblist),
    )
    for kind, joblist_fn in ride_alongs:
        fault = f"{FAULT_STORE_LOCKED}@{kind}"
        plan = _single_class_plan(FAULT_STORE_LOCKED, seed)
        say(f"chaos: injecting {fault} ({plan.describe()})")
        classdir = workdir / fault
        classdir.mkdir(parents=True, exist_ok=True)
        outcome = FaultOutcome(fault=fault)
        reset_breakers()
        try:
            kind_jobs = joblist_fn(duration_s, trials)
            kind_baseline = _baseline(kind_jobs)
            _run_faulted(fault, plan, kind_jobs, classdir, jobs, outcome)
            sideline_keys = _sideline_keys(
                Path(f"{classdir / 'store.db'}.sideline.jsonl")
            )
            violations, _missing = _check_store(
                classdir / "store.db",
                kind_baseline,
                getattr(outcome, "accounted_keys", set()),
                sideline_keys,
            )
            outcome.violations += violations
            _recover(kind_jobs, classdir, kind_baseline, outcome)
        finally:
            inject.deactivate()
            reset_breakers()
        say("chaos: " + outcome.summary().replace("\n", "\nchaos: "))
        report.outcomes.append(outcome)
    return report


__all__ = ["ChaosReport", "FaultOutcome", "run_chaos"]
