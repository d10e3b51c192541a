"""The experiment executor: a crash-tolerant process pool for trial jobs.

``Executor.run(jobs)`` takes a list of :class:`repro.exec.jobs.Job` and
returns their values in submission order.  Scheduling model:

* Jobs whose cache key is already present in the campaign cache are
  satisfied immediately (status ``cached``) without touching the pool.
* With ``jobs=1`` (the default) everything runs in-process, serially.
* With ``jobs=N`` a pool of N ``multiprocessing`` workers (``spawn``
  start method, so everything crossing the boundary must pickle) pulls
  jobs from a queue.  The pool is warm: it is spawned on the first pool
  run and shared by every later run of the same ``(start_method, jobs)``
  in the process (see :mod:`repro.exec.pool`); a run that timed out or
  quarantined a job shuts its pool down instead.  Workers hold no
  cache: they compute, ship the value back, and the parent inserts it
  into the campaign cache.
* Each job attempt has an optional wall-clock ``timeout_s``; a timed-out
  or crashed worker is terminated and replaced, and the job is retried
  with the ``retry`` policy's backoff until its attempts run out.
* If the pool cannot start at all (or keeps dying), the executor
  degrades gracefully to in-process serial execution of the remaining
  jobs and records ``mode="serial-fallback"``.

Only the executor reads and fills the cache, once per key; job functions
only compute.  Every harness campaign runs its trials through one
``run`` call and evaluates the values it returns.

Determinism: the executor never derives seeds or keys itself — jobs
carry them, computed by :func:`repro.harness.runner.trial_identity` and
its siblings — so a pool campaign produces bit-identical arrays to a
``jobs=1`` one.
"""

from __future__ import annotations

import os
import queue
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.faults import inject
from repro.faults.inject import InjectedFault
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.harness.cache import DEFAULT_CACHE, ResultCache
from repro.exec.jobs import Job
from repro.exec.pool import checkin, checkout
from repro.exec.telemetry import (
    STATUS_CACHED,
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_TIMEOUT,
    CampaignTelemetry,
    JobRecord,
    RunManifest,
    StoreSink,
)


class ExecutionError(RuntimeError):
    """One or more jobs exhausted their retries."""

    def __init__(self, failures: List[JobRecord]):
        self.failures = failures
        lines = ", ".join(
            f"{r.label or r.index}: {r.status} ({r.error})" for r in failures[:5]
        )
        more = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
        super().__init__(f"{len(failures)} job(s) failed: {lines}{more}")


class _PoolBroken(Exception):
    """Internal: the worker pool cannot start or keeps dying."""


class _Progress:
    """Per-run done/total tracking feeding the progress callback."""

    def __init__(self, total: int, callback):
        self.total = total
        self.done = 0
        self.callback = callback

    def emit(self, record: JobRecord) -> None:
        self.done += 1
        if self.callback is not None:
            self.callback(record, self.done, self.total)


class Executor:
    """Runs experiment jobs across worker processes with retry/timeout.

    Parameters
    ----------
    jobs:
        Worker-process count.  ``1`` (default) executes in-process.
    cache:
        Campaign :class:`ResultCache`; results of every job land here.
        Defaults to the process-wide ``DEFAULT_CACHE``.
    timeout_s:
        Per-attempt wall-clock limit, enforced in pool mode by
        terminating the worker.  ``None`` disables.  (Serial mode cannot
        preempt a running job; timeouts apply between attempts only.)
    retry:
        :class:`repro.faults.retry.RetryPolicy` for failed, timed-out
        and crashed attempts (default: 3 attempts, 0.05 s backoff base);
        its injectable sleep/clock seams are the only way retry pauses
        ever happen, so tests pass a fake pair and retry paths run
        instantly.
    poison_crashes:
        Quarantine threshold: a job whose attempts *crash the worker*
        this many times is pulled from rotation with a typed
        ``quarantined`` record instead of burning respawn budget on
        every remaining retry.  ``None`` disables quarantine.
    fault_plan:
        Optional :class:`repro.faults.plan.FaultPlan` shipped with every
        task and activated afresh in each worker for each run (the
        parent process activates plans separately via
        :func:`repro.faults.inject.activate`).
    start_method:
        ``multiprocessing`` start method; ``spawn`` is the portable,
        deterministic default.
    progress:
        Optional callback ``(record, done, total)`` fired as each job
        finishes (see :class:`repro.exec.telemetry.ProgressPrinter`).
    manifest_path:
        If set, every campaign appends JSONL records here.
    store:
        Optional results warehouse — a :class:`repro.store.ResultStore`
        or a database path.  Campaign telemetry is journalled to its
        events table and every completed trial payload is persisted,
        deduped by content-addressed key (see
        :class:`repro.exec.telemetry.StoreSink`).
    store_run:
        Store-run name grouping every campaign of this executor; by
        default each campaign gets its own run named after itself.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        timeout_s: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        poison_crashes: Optional[int] = 3,
        fault_plan: Optional[FaultPlan] = None,
        start_method: str = "spawn",
        progress=None,
        manifest_path: Optional[Union[str, "os.PathLike"]] = None,
        store=None,
        store_run: Optional[str] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = cache if cache is not None else DEFAULT_CACHE
        self.timeout_s = timeout_s
        if retry is None:
            retry = RetryPolicy(max_attempts=3, backoff_s=0.05)
        self.retry = retry
        # Attempt bookkeeping below speaks in "extra attempts".
        self.retries = max(0, (retry.max_attempts or 1) - 1)
        self.poison_crashes = poison_crashes
        self.fault_plan = fault_plan
        self.start_method = start_method
        self.progress = progress
        self.manifest = RunManifest(manifest_path) if manifest_path else None
        self._owns_store = False
        self.store_sink: Optional[StoreSink] = None
        if store is not None:
            if isinstance(store, (str, Path)):
                # Autodetects sharded layouts (a shards.json directory)
                # as well as classic single-file warehouses.
                from repro.store.sharded import open_store

                store = open_store(store)
                self._owns_store = True
            self.store_sink = StoreSink(store, run_name=store_run)
        self.telemetry = CampaignTelemetry()
        self.last_records: List[JobRecord] = []
        self.last_mode: str = ""

    def _sinks(self):
        return [s for s in (self.manifest, self.store_sink) if s is not None]

    def close(self) -> None:
        """Flush and close the manifest and any owned store connection."""
        if self.manifest is not None:
            self.manifest.close()
        if self.store_sink is not None and self._owns_store:
            self.store_sink.store.close()

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ api

    def run(self, jobs: Sequence[Job], campaign: str = "campaign") -> List[np.ndarray]:
        """Execute ``jobs`` and return their values in submission order.

        A key submitted more than once is computed once; every position
        holding it gets the same value.

        Raises :class:`ExecutionError` if any job exhausts its retries;
        telemetry and the manifest are still written in that case.
        """
        joblist = list(jobs)
        records = [
            JobRecord(index=i, label=j.label, key=j.key)
            for i, j in enumerate(joblist)
        ]
        values: List[Optional[np.ndarray]] = [None] * len(joblist)
        state = _Progress(len(joblist), self.progress)
        start = time.perf_counter()

        pending: List[int] = []
        first_by_key: Dict[str, int] = {}
        duplicates: Dict[int, int] = {}
        for i, job in enumerate(joblist):
            if job.key and job.key in first_by_key:
                # Same key submitted twice in one campaign (e.g. shared
                # reference trials): compute once, copy the result.
                duplicates[i] = first_by_key[job.key]
                continue
            if job.key:
                first_by_key[job.key] = i
            cached = self.cache.get(job.key) if job.key else None
            if cached is not None:
                values[i] = cached
                records[i].status = STATUS_CACHED
                state.emit(records[i])
            else:
                pending.append(i)

        mode = "serial"
        if self.jobs > 1 and pending:
            mode = f"pool-{self.start_method}x{self.jobs}"
        for sink in self._sinks():
            sink.campaign_start(campaign, len(joblist), self.jobs, mode)

        if pending:
            if self.jobs > 1:
                try:
                    self._run_pool(joblist, pending, values, records, state)
                except _PoolBroken as exc:
                    warnings.warn(
                        f"repro.exec: worker pool unavailable ({exc}); "
                        "falling back to in-process serial execution"
                    )
                    mode = "serial-fallback"
                    unresolved = [
                        i for i in pending if records[i].status == "pending"
                    ]
                    self._run_serial(joblist, unresolved, values, records, state)
            else:
                self._run_serial(joblist, pending, values, records, state)

        for i, source in duplicates.items():
            values[i] = values[source]
            if records[source].status in (STATUS_OK, STATUS_CACHED):
                records[i].status = STATUS_CACHED
            else:
                records[i].status = records[source].status
                records[i].error = records[source].error
            state.emit(records[i])

        wall = time.perf_counter() - start
        self.telemetry.absorb(records, wall, mode)
        self.last_records = records
        self.last_mode = mode
        for sink in self._sinks():
            for record in records:
                sink.job(campaign, record)
            sink.campaign_end(campaign, records, wall, self.cache.counters())
        if self.store_sink is not None:
            # Persist every completed payload (computed *and* cache-served:
            # a store-backed run over a warm in-memory cache should still
            # fill the warehouse).  Content-addressed keys dedupe re-runs.
            self.store_sink.trials(
                campaign,
                [
                    (joblist[i].key, values[i])
                    for i, record in enumerate(records)
                    if joblist[i].key
                    and values[i] is not None
                    and record.status in (STATUS_OK, STATUS_CACHED)
                ],
            )
        failures = [
            r for r in records if r.status not in (STATUS_OK, STATUS_CACHED)
        ]
        if failures:
            raise ExecutionError(failures)
        return values  # type: ignore[return-value]

    # --------------------------------------------------------------- serial

    def _run_serial(self, joblist, indices, values, records, state) -> None:
        for i in indices:
            job, record = joblist[i], records[i]
            while True:
                record.attempts += 1
                start = time.perf_counter()
                try:
                    value = np.asarray(job.fn(*job.args, **job.kwargs))
                except Exception as exc:
                    record.wall_s += time.perf_counter() - start
                    record.error = f"{type(exc).__name__}: {exc}"
                    if record.attempts <= self.retries:
                        record.retried = True
                        self.retry.sleep(self.retry.backoff(record.attempts))
                        continue
                    record.status = STATUS_FAILED
                else:
                    record.wall_s += time.perf_counter() - start
                    record.error = None
                    record.status = STATUS_OK
                    values[i] = value
                    if job.key:
                        self.cache.put(job.key, value)
                state.emit(record)
                break

    # ----------------------------------------------------------------- pool

    def _run_pool(self, joblist, indices, values, records, state) -> None:
        try:
            pool = checkout(self.start_method, self.jobs)
        except ValueError as exc:
            raise _PoolBroken(f"unknown start method: {exc}")
        except OSError as exc:
            raise _PoolBroken(f"cannot create queues: {exc}")
        pool.run_id += 1
        run_id, task_q, result_q, procs = (
            pool.run_id, pool.task_q, pool.result_q, pool.procs
        )
        respawn_budget = len(indices) * (self.retries + 1)

        def spawn(count: int) -> int:
            started = pool.spawn(count, self.fault_plan)
            self.telemetry.worker_spawns += started
            return started

        def submit(i: int) -> None:
            task_q.put((run_id, self.fault_plan, i, joblist[i], attempts[i]))

        attempts: Dict[int, int] = {i: 0 for i in indices}
        crashes: Dict[int, int] = {i: 0 for i in indices}
        resolved: Set[int] = set()
        requeue: List[Tuple[float, int]] = []
        running: Dict[int, Tuple[int, int, float]] = {}  # pid -> (idx, att, t0)
        started: Set[Tuple[int, int]] = set()  # (idx, att) that reported in
        stall_budget = len(indices) * (self.retries + 1)
        last_activity = time.monotonic()
        # A pool goes back to the idle list only if this run ends clean:
        # nothing in flight, no worker terminated for a timeout, no job
        # quarantined, no exception.
        reusable = True

        for i in indices:
            attempts[i] += 1
            submit(i)

        # A warm pool is already staffed; a new one starts empty.
        spawn(min(self.jobs, len(indices)) - len(procs))
        if not procs:
            pool.shutdown()
            raise _PoolBroken("no worker process could start")

        def fail_attempt(i: int, errmsg: str, final_status: str, wall: float) -> None:
            record = records[i]
            record.error = errmsg
            record.wall_s += wall
            record.attempts = attempts[i]
            if attempts[i] <= self.retries:
                record.retried = True
                requeue.append(
                    (time.monotonic() + self.retry.backoff(attempts[i]), i)
                )
            else:
                record.status = final_status
                resolved.add(i)
                state.emit(record)

        try:
            while len(resolved) < len(indices):
                now = time.monotonic()
                # Release retry attempts whose backoff has elapsed.
                for due, i in list(requeue):
                    if i in resolved:
                        requeue.remove((due, i))
                    elif due <= now:
                        requeue.remove((due, i))
                        attempts[i] += 1
                        submit(i)
                        last_activity = now

                try:
                    msg = result_q.get(timeout=0.05)
                except queue.Empty:
                    msg = None
                if msg is not None and msg[1] != run_id:
                    msg = None  # left over from an earlier run on this pool
                if msg is not None and msg[0] == "start":
                    # Injection seam: drop a worker's "start" report, as if
                    # it died before the message flushed.  Exercises the
                    # stall-recovery resubmission path below.
                    try:
                        inject.fault_point("exec.result", kind="start")
                    except InjectedFault:
                        msg = None
                if msg is not None:
                    last_activity = time.monotonic()
                    kind = msg[0]
                    if kind == "start":
                        _, _, pid, i, att = msg
                        running[pid] = (i, att, time.monotonic())
                        started.add((i, att))
                    elif kind == "ok":
                        _, _, pid, i, att, value, wall = msg
                        running.pop(pid, None)
                        if i not in resolved:
                            record = records[i]
                            record.status = STATUS_OK
                            record.error = None
                            record.attempts = max(record.attempts, att)
                            record.wall_s += wall
                            values[i] = value
                            if joblist[i].key:
                                self.cache.put(joblist[i].key, value)
                            resolved.add(i)
                            state.emit(record)
                    elif kind == "err":
                        _, _, pid, i, att, errmsg, wall = msg
                        running.pop(pid, None)
                        if i not in resolved and att == attempts[i]:
                            fail_attempt(i, errmsg, STATUS_FAILED, wall)

                # Enforce per-attempt timeouts by terminating the worker.
                if self.timeout_s is not None:
                    now = time.monotonic()
                    for pid, (i, att, t0) in list(running.items()):
                        if now - t0 > self.timeout_s:
                            running.pop(pid, None)
                            reusable = False
                            proc = procs.pop(pid, None)
                            if proc is not None:
                                proc.terminate()
                                proc.join(1.0)
                            if i not in resolved and att == attempts[i]:
                                fail_attempt(
                                    i,
                                    f"timed out after {self.timeout_s:g}s",
                                    STATUS_TIMEOUT,
                                    now - t0,
                                )

                # Reap workers that died (crash, os._exit, OOM-kill...).
                for pid, proc in list(procs.items()):
                    if not proc.is_alive():
                        procs.pop(pid, None)
                        proc.join(0.1)
                        if pid in running:
                            i, att, t0 = running.pop(pid)
                            if i not in resolved and att == attempts[i]:
                                crashes[i] += 1
                                if (
                                    self.poison_crashes is not None
                                    and crashes[i] >= self.poison_crashes
                                ):
                                    # Poison job: it keeps taking workers
                                    # down with it.  Quarantine instead of
                                    # burning the respawn budget retrying.
                                    reusable = False
                                    record = records[i]
                                    record.error = (
                                        f"quarantined after {crashes[i]} worker "
                                        f"crashes (exit code {proc.exitcode})"
                                    )
                                    record.status = STATUS_QUARANTINED
                                    record.attempts = attempts[i]
                                    record.wall_s += time.monotonic() - t0
                                    resolved.add(i)
                                    state.emit(record)
                                else:
                                    fail_attempt(
                                        i,
                                        f"worker crashed (exit code {proc.exitcode})",
                                        STATUS_CRASHED,
                                        time.monotonic() - t0,
                                    )

                # Keep the pool staffed while work remains.
                unresolved = len(indices) - len(resolved)
                if unresolved:
                    want = min(self.jobs, unresolved)
                    missing = want - len(procs)
                    if missing > 0 and respawn_budget > 0:
                        respawn_budget -= spawn(min(missing, respawn_budget))
                    if not procs:
                        raise _PoolBroken("all workers died and none restart")

                # Stall recovery: a worker that dies before its "start"
                # message flushes takes the task with it silently.  If
                # nothing is running, nothing is awaiting backoff, and no
                # message has arrived for a while, resubmit every
                # unresolved attempt that never reported in.
                if (
                    not running
                    and not requeue
                    and time.monotonic() - last_activity > 2.0
                    and task_q.empty()  # consumed, not merely unclaimed
                ):
                    for i in indices:
                        if i in resolved or (i, attempts[i]) in started:
                            continue
                        if stall_budget <= 0:
                            raise _PoolBroken("jobs vanish without starting")
                        stall_budget -= 1
                        submit(i)
                    last_activity = time.monotonic()
        except BaseException:
            pool.shutdown()
            raise
        if reusable and not running:
            checkin(pool)
        else:
            pool.shutdown()


__all__ = ["Executor", "ExecutionError"]
