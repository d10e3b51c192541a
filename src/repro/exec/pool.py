"""Warm worker pools: worker processes that outlive one ``Executor.run``.

Starting a ``spawn`` worker costs about a second of imports, far more
than the short trials of a small campaign.  So a pool of N workers is
not torn down when a run ends: a run that ended clean checks its pool
back into a process-wide idle list, and the next run with the same
``(start_method, jobs)`` checks it out again instead of spawning.
:func:`close_pools` shuts every idle pool down; it runs at interpreter
exit and when the service scheduler or a fabric worker stops.

Workers hold no cache: they run each job's function and send the value
back, and the executor alone reads and fills the campaign cache.  Every
task carries the id of the run that queued it.  A worker that sees a new
run id re-activates that run's fault plan (or deactivates the old one),
so fault-occurrence counters behave exactly as they do in freshly
spawned workers.  Every message a worker sends back carries the run id
too, and the executor drops those of a finished run.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue
import threading
import time
from typing import Dict, List, Optional

import numpy as np

from repro.faults import inject
from repro.faults.plan import FaultPlan


def _worker_main(task_q, result_q, run_id: int, fault_plan: Optional[FaultPlan]):
    """Worker loop: pull ``(run_id, fault_plan, index, job, attempt)``
    tasks until the None sentinel.

    Runs in a spawned child process; must only touch picklable state.
    The fault plan crosses the spawn boundary as data and is activated
    locally — at bootstrap for the run that spawned the worker, and
    again for every later run the worker serves — so worker-side
    injection seams fire on the same deterministic schedule in every
    worker generation and every run.
    """

    def begin_run(plan: Optional[FaultPlan]) -> None:
        if plan is not None:
            inject.activate(plan)
        else:
            inject.deactivate()

    begin_run(fault_plan)
    inject.fault_point("exec.worker.start")
    pid = os.getpid()
    while True:
        task = task_q.get()
        if task is None:
            return
        task_run, plan, index, job, attempt = task
        if task_run != run_id:
            run_id = task_run
            begin_run(plan)
        result_q.put(("start", run_id, pid, index, attempt))
        start = time.perf_counter()
        try:
            inject.fault_point("exec.worker.trial", index=index, attempt=attempt)
            value = np.asarray(job.fn(*job.args, **job.kwargs))
        except BaseException as exc:  # report *any* job failure to the parent
            result_q.put(
                (
                    "err",
                    run_id,
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
                    run_id,
                    pid,
                    index,
                    attempt,
                    value,
                    time.perf_counter() - start,
                )
            )


def _drain(q) -> None:
    """Drop every message ``q`` holds now, without waiting."""
    while True:
        try:
            q.get_nowait()
        except (queue.Empty, OSError):
            break


class WorkerPool:
    """Up to ``jobs`` worker processes sharing one task and one result queue.

    Raises ``ValueError`` for an unknown start method and ``OSError``
    when the queues cannot be created.
    """

    def __init__(self, start_method: str, jobs: int):
        self.key = (start_method, jobs)
        self.ctx = multiprocessing.get_context(start_method)
        self.task_q = self.ctx.Queue()
        self.result_q = self.ctx.Queue()
        self.procs: Dict[int, multiprocessing.process.BaseProcess] = {}
        self.owner_pid = os.getpid()
        #: Id of the latest run; each run takes the next one.
        self.run_id = 0

    def spawn(self, count: int, fault_plan: Optional[FaultPlan]) -> int:
        """Start up to ``count`` workers for the current run; returns how many."""
        started = 0
        for _ in range(count):
            try:
                proc = self.ctx.Process(
                    target=_worker_main,
                    args=(self.task_q, self.result_q, self.run_id, fault_plan),
                    daemon=True,
                )
                proc.start()
            except OSError:
                break
            self.procs[proc.pid] = proc
            started += 1
        return started

    def shutdown(self) -> None:
        """Stop every worker (sentinel, then terminate) and close the queues."""
        # Drain stale tasks so idle workers see the sentinels promptly.
        _drain(self.task_q)
        for _ in self.procs:
            try:
                self.task_q.put(None)
            except (ValueError, OSError):
                break
        deadline = time.monotonic() + 2.0
        for proc in self.procs.values():
            while proc.is_alive() and time.monotonic() < deadline:
                # A worker exits only once its queued results are flushed,
                # so keep the result pipe empty while waiting for it.
                _drain(self.result_q)
                proc.join(0.05)
            if proc.is_alive():
                proc.terminate()
                proc.join(0.5)
        self.procs.clear()
        for q in (self.task_q, self.result_q):
            try:
                q.cancel_join_thread()
                q.close()
            except (ValueError, OSError):
                pass


# The lock guards only list edits: spawning, joining and queue waits all
# happen outside it.
_IDLE: List[WorkerPool] = []
_IDLE_LOCK = threading.Lock()


def checkout(start_method: str, jobs: int) -> WorkerPool:
    """An idle pool of this shape, or a new (not yet staffed) one."""
    pid = os.getpid()
    with _IDLE_LOCK:
        for n, pool in enumerate(_IDLE):
            if pool.key == (start_method, jobs) and pool.owner_pid == pid:
                return _IDLE.pop(n)
    return WorkerPool(start_method, jobs)


def checkin(pool: WorkerPool) -> None:
    """Park a pool whose run ended clean for the next run to reuse."""
    _drain(pool.task_q)  # stall-recovery copies of tasks that finished
    with _IDLE_LOCK:
        _IDLE.append(pool)


def close_pools() -> None:
    """Shut down every idle pool this process owns.

    Pools inherited through ``fork`` belong to the parent and are only
    forgotten, never signalled.
    """
    pid = os.getpid()
    with _IDLE_LOCK:
        pools = list(_IDLE)
        _IDLE.clear()
    for pool in pools:
        if pool.owner_pid == pid:
            pool.shutdown()


atexit.register(close_pools)


__all__ = ["WorkerPool", "checkout", "checkin", "close_pools"]
