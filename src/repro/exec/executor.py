"""The experiment executor: a crash-tolerant process pool for trial jobs.

``Executor.run(jobs)`` takes a list of :class:`repro.exec.jobs.Job` and
returns their values in submission order.  Scheduling model:

* Jobs whose cache key is already present in the campaign cache are
  satisfied immediately (status ``cached``) without touching the pool.
* With ``jobs=1`` (the default) everything runs in-process, serially.
* With ``jobs=N`` a pool of N ``multiprocessing`` workers (``spawn``
  start method, so everything crossing the boundary must pickle) pulls
  jobs from a queue.  Workers hold their own in-memory
  :class:`~repro.harness.cache.ResultCache`; computed values are shipped
  back and inserted into the parent cache.
* Each job attempt has an optional wall-clock ``timeout_s``; a timed-out
  or crashed worker is terminated and replaced, and the job is retried
  with exponential backoff up to ``retries`` extra attempts.
* If the pool cannot start at all (or keeps dying), the executor
  degrades gracefully to in-process serial execution of the remaining
  jobs and records ``mode="serial-fallback"``.

Every harness campaign runs its trials through one ``run`` call and
evaluates the values it returns; nothing re-reads them from the cache.

Determinism: the executor never derives seeds or keys itself — jobs
carry them, computed by :func:`repro.harness.runner.trial_identity` and
its siblings — so a pool campaign produces bit-identical arrays to a
``jobs=1`` one.
"""

from __future__ import annotations

import multiprocessing
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


def _worker_main(task_q, result_q, fault_plan: Optional[FaultPlan] = None):
    """Worker loop: pull (index, job, attempt) tasks until the None sentinel.

    Runs in a spawned child process; must only touch picklable state.
    The parent's fault plan (if any) crosses the spawn boundary as data
    and is activated locally, so worker-side injection seams fire on the
    same deterministic schedule in every worker generation.
    """
    if fault_plan is not None:
        inject.activate(fault_plan)
    inject.fault_point("exec.worker.start")
    cache = ResultCache()
    pid = os.getpid()
    while True:
        task = task_q.get()
        if task is None:
            return
        index, job, attempt = task
        result_q.put(("start", pid, index, attempt))
        start = time.perf_counter()
        hits0, misses0 = cache.hits, cache.misses
        try:
            inject.fault_point("exec.worker.trial", index=index, attempt=attempt)
            value = np.asarray(job.fn(*job.args, cache=cache, **job.kwargs))
        except BaseException as exc:  # report *any* job failure to the parent
            result_q.put(
                (
                    "err",
                    pid,
                    index,
                    attempt,
                    f"{type(exc).__name__}: {exc}",
                    time.perf_counter() - start,
                )
            )
        else:
            result_q.put(
                (
                    "ok",
                    pid,
                    index,
                    attempt,
                    value,
                    time.perf_counter() - start,
                    cache.hits - hits0,
                    cache.misses - misses0,
                )
            )


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
    retries:
        Extra attempts after a failed/timed-out/crashed attempt.
    backoff_s:
        Base of the exponential retry backoff (``backoff_s * 2**(n-1)``).
    retry:
        Optional :class:`repro.faults.retry.RetryPolicy` overriding
        ``retries``/``backoff_s``; its injectable sleep/clock seams are
        the only way retry pauses ever happen, so tests pass a fake pair
        and retry paths run instantly.
    poison_crashes:
        Quarantine threshold: a job whose attempts *crash the worker*
        this many times is pulled from rotation with a typed
        ``quarantined`` record instead of burning respawn budget on
        every remaining retry.  ``None`` disables quarantine.
    fault_plan:
        Optional :class:`repro.faults.plan.FaultPlan` shipped to every
        spawned worker (the parent process activates plans separately
        via :func:`repro.faults.inject.activate`).
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
        retries: int = 2,
        backoff_s: float = 0.05,
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
            retry = RetryPolicy(
                max_attempts=max(0, int(retries)) + 1, backoff_s=backoff_s
            )
        self.retry = retry
        # Attempt bookkeeping below speaks in "extra attempts"; derive it
        # from whichever policy won so there is one source of truth.
        self.retries = max(0, (retry.max_attempts or 1) - 1)
        self.backoff_s = retry.backoff_s
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
                hits0, misses0 = self.cache.hits, self.cache.misses
                start = time.perf_counter()
                try:
                    value = np.asarray(
                        job.fn(*job.args, cache=self.cache, **job.kwargs)
                    )
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
                    record.worker_hits += self.cache.hits - hits0
                    record.worker_misses += self.cache.misses - misses0
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
            ctx = multiprocessing.get_context(self.start_method)
        except ValueError as exc:
            raise _PoolBroken(f"unknown start method: {exc}")

        try:
            task_q = ctx.Queue()
            result_q = ctx.Queue()
        except OSError as exc:
            raise _PoolBroken(f"cannot create queues: {exc}")

        worker_args = (task_q, result_q, self.fault_plan)
        procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        respawn_budget = len(indices) * (self.retries + 1)

        def spawn(count: int) -> int:
            started = 0
            for _ in range(count):
                try:
                    proc = ctx.Process(
                        target=_worker_main, args=worker_args, daemon=True
                    )
                    proc.start()
                except OSError:
                    break
                procs[proc.pid] = proc
                started += 1
            return started

        attempts: Dict[int, int] = {i: 0 for i in indices}
        crashes: Dict[int, int] = {i: 0 for i in indices}
        resolved: Set[int] = set()
        requeue: List[Tuple[float, int]] = []
        running: Dict[int, Tuple[int, int, float]] = {}  # pid -> (idx, att, t0)
        started: Set[Tuple[int, int]] = set()  # (idx, att) that reported in
        stall_budget = len(indices) * (self.retries + 1)
        last_activity = time.monotonic()

        for i in indices:
            attempts[i] += 1
            task_q.put((i, joblist[i], attempts[i]))

        if spawn(min(self.jobs, len(indices))) == 0:
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
                        task_q.put((i, joblist[i], attempts[i]))
                        last_activity = now

                try:
                    msg = result_q.get(timeout=0.05)
                except queue.Empty:
                    msg = None
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
                        _, pid, i, att = msg
                        running[pid] = (i, att, time.monotonic())
                        started.add((i, att))
                    elif kind == "ok":
                        _, pid, i, att, value, wall, hits, misses = msg
                        running.pop(pid, None)
                        if i not in resolved:
                            record = records[i]
                            record.status = STATUS_OK
                            record.error = None
                            record.attempts = max(record.attempts, att)
                            record.wall_s += wall
                            record.worker_hits += hits
                            record.worker_misses += misses
                            values[i] = value
                            if joblist[i].key:
                                self.cache.put(joblist[i].key, value)
                            resolved.add(i)
                            state.emit(record)
                    elif kind == "err":
                        _, pid, i, att, errmsg, wall = msg
                        running.pop(pid, None)
                        if i not in resolved and att == attempts[i]:
                            fail_attempt(i, errmsg, STATUS_FAILED, wall)

                # Enforce per-attempt timeouts by terminating the worker.
                if self.timeout_s is not None:
                    now = time.monotonic()
                    for pid, (i, att, t0) in list(running.items()):
                        if now - t0 > self.timeout_s:
                            running.pop(pid, None)
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
                        task_q.put((i, joblist[i], attempts[i]))
                    last_activity = time.monotonic()
        finally:
            self._shutdown(task_q, result_q, procs)

    @staticmethod
    def _shutdown(task_q, result_q, procs) -> None:
        # Drain stale tasks so idle workers see the sentinels promptly.
        while True:
            try:
                task_q.get_nowait()
            except (queue.Empty, OSError):
                break
        for _ in procs:
            try:
                task_q.put(None)
            except (ValueError, OSError):
                break
        deadline = time.monotonic() + 2.0
        for proc in procs.values():
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(0.5)
        for q in (task_q, result_q):
            try:
                q.cancel_join_thread()
                q.close()
            except (ValueError, OSError):
                pass


__all__ = ["Executor", "ExecutionError"]
