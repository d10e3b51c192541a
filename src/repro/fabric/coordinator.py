"""The fabric coordinator: scheduler dispatching into the durable queue.

:class:`Coordinator` is the service scheduler with its dispatch seam
rerouted — instead of handing jobs to in-process worker threads, it
enqueues them into the :class:`~repro.fabric.queue.WorkQueue` living in
the same warehouse file, and a fleet of :mod:`repro.fabric.worker`
processes (local or remote) leases them out over HTTP.

Everything the single-process scheduler guarantees carries over:

* the events journal is still written *before* state changes, so
  :meth:`resume_pending` replays across coordinator restarts — and the
  queue's ``INSERT OR IGNORE`` by campaign id makes the replay meet the
  durable task rows halfway (a task that finished while the coordinator
  was down completes its job immediately on re-submit);
* trial results are content-addressed, so a campaign that runs twice
  (lease expiry, crashed worker, stale completion) lands bit-identical
  rows, never duplicates;
* long-poll/SSE watchers see the same event stream — workers ship
  progress batches on their heartbeats and the coordinator re-emits
  them into the job.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.exec.telemetry import default_clock
from repro.fabric import queue as fq
from repro.fabric.queue import Lease, QuotaExceeded, WorkQueue
from repro.fabric.wire import ingest_bundle
from repro.faults.retry import default_sleep
from repro.service.scheduler import (
    CANCELLED,
    DONE,
    EVENT_CANCELLED,
    EVENT_DONE,
    EVENT_FAILED,
    EVENT_STARTED,
    FAILED,
    PENDING,
    RUNNING,
    CampaignJob,
    Scheduler,
)
from repro.store.warehouse import ResultStore

#: Default lease time-to-live handed to workers; three missed heartbeats.
DEFAULT_LEASE_TTL_S = 30.0


class Coordinator(Scheduler):
    """A :class:`Scheduler` whose work runs on leased fabric workers.

    ``workers=0`` always: the coordinator never executes campaigns
    itself.  Worker processes drive the protocol methods
    (:meth:`lease_task`, :meth:`heartbeat_task`, :meth:`complete_task`,
    :meth:`fail_task`) through the HTTP layer.
    """

    def __init__(
        self,
        store_path: str,
        exec_jobs: int = 1,
        max_pending: int = 64,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        max_attempts: int = fq.DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] = default_clock,
        sleep: Callable[[float], None] = default_sleep,
    ):
        self.lease_ttl_s = float(lease_ttl_s)
        self.max_attempts = int(max_attempts)
        self._sleep = sleep
        super().__init__(
            store_path,
            workers=0,
            exec_jobs=exec_jobs,
            max_pending=max_pending,
            clock=clock,
        )

    # ------------------------------------------------------------ plumbing

    def _work_queue(self) -> WorkQueue:
        """A short-lived queue handle; SQLite connections are thread-bound
        and protocol calls arrive on arbitrary HTTP threads."""
        return WorkQueue(
            self.store_path, max_attempts=self.max_attempts, clock=self._clock
        )

    def ensure_tenant(
        self,
        name: str,
        weight: int = 1,
        max_pending: Optional[int] = None,
        max_active: Optional[int] = None,
    ) -> None:
        with self._work_queue() as q:
            q.ensure_tenant(
                name,
                weight=weight,
                max_pending=max_pending,
                max_active=max_active,
            )

    # ------------------------------------------------------------ dispatch

    def _dispatch(self, job: CampaignJob) -> None:
        # Called from submit() with the scheduler lock held.
        with self._work_queue() as q:
            try:
                task = q.enqueue(
                    job.id,
                    {"spec": job.spec.canonical(), "priority": job.priority},
                    tenant=job.tenant,
                    priority=job.priority,
                )
            except QuotaExceeded:
                # Unwind the journaled submit so the rejection is durable
                # and the job is not exposed as pending.
                self._journal(EVENT_CANCELLED, job, error="tenant quota")
                self._jobs.pop(job.id, None)
                raise
        # resume_pending() meeting a task that finished while the
        # coordinator was down: settle the job from the durable row.
        if task.state == fq.DONE:
            self._journal(EVENT_DONE, job, **task.result)
            with self._lock:
                job.cells = int(task.result.get("cells", 0) or 0)
            self._finish(job, DONE, None)
        elif task.state == fq.FAILED:
            self._journal(EVENT_FAILED, job, error=task.error or "failed")
            self._finish(job, FAILED, task.error)
        elif task.state == fq.CANCELLED:
            self._journal(EVENT_CANCELLED, job)
            self._finish(job, CANCELLED, None)

    def cancel(self, campaign_id: str) -> bool:
        ok = super().cancel(campaign_id)
        if ok:
            with self._work_queue() as q:
                try:
                    q.cancel(campaign_id)
                except fq.QueueError:
                    pass  # never dispatched (quota unwind raced)
        return ok

    # ------------------------------------------------- worker protocol

    def _reconcile_expired(self, campaigns: List[str]) -> None:
        """Reflect queue-side lease expiry into job state and journal."""
        for campaign in campaigns:
            job = self.job(campaign)
            if job is None:
                continue
            with self._work_queue() as q:
                task = q.task(campaign)
            if task is None:
                continue
            if task.state == fq.FAILED:
                if job.state not in (DONE, FAILED, CANCELLED):
                    self._journal(EVENT_FAILED, job, error=task.error or "")
                    self._finish(job, FAILED, task.error)
            elif task.state == fq.PENDING and job.state == RUNNING:
                with self._lock:
                    job.state = PENDING
                self._emit(
                    job,
                    {"event": "lease-expired", "attempt": task.attempts},
                )
                self._emit(job, {"event": "state", "state": PENDING})

    def lease_task(
        self, owner: str, ttl_s: Optional[float] = None
    ) -> Optional[Lease]:
        """Claim the next task for a worker.

        Returns None when the queue is idle, or ``{"drain": True}``
        when the worker carries a durable drain directive — it gets the
        exit order instead of work.
        """
        ttl = float(ttl_s or self.lease_ttl_s)
        with self._work_queue() as q:
            expired = q.sweep()
            lease = q.lease(owner, ttl_s=ttl)
        if expired:
            self._reconcile_expired(expired)
        if lease is None or isinstance(lease, dict):
            return lease
        job = self.job(lease.campaign)
        if job is not None:
            with self._lock:
                job.state = RUNNING
                job.started_at = self._clock()
            self._journal(
                EVENT_STARTED, job, worker=owner, attempt=lease.attempt
            )
            self._emit(
                job,
                {
                    "event": "state",
                    "state": RUNNING,
                    "worker": owner,
                    "attempt": lease.attempt,
                },
            )
        return lease

    def heartbeat_task(
        self,
        campaign: str,
        lease_id: str,
        ttl_s: Optional[float] = None,
        progress: Optional[List[dict]] = None,
    ) -> dict:
        """Extend a lease and fold the worker's progress batch into the
        job's event stream (long-poll/SSE watchers see it live)."""
        ttl = float(ttl_s or self.lease_ttl_s)
        with self._work_queue() as q:
            beat = q.heartbeat(campaign, lease_id, ttl_s=ttl)
        job = self.job(campaign)
        if job is not None and beat.get("ok"):
            if job.state == PENDING:
                with self._lock:
                    job.state = RUNNING
            for event in progress or []:
                if event.get("event") == "trial":
                    with self._lock:
                        job.done = int(event.get("done", job.done) or 0)
                        job.total = int(event.get("total", job.total) or 0)
                        status = str(event.get("status", ""))
                        if status:
                            job.statuses[status] = (
                                job.statuses.get(status, 0) + 1
                            )
                self._emit(
                    job,
                    {
                        k: v
                        for k, v in event.items()
                        if k not in ("seq", "time")
                    },
                )
            if job.cancel_event.is_set():
                beat = dict(beat, cancel=True)
        return beat

    def complete_task(
        self,
        campaign: str,
        lease_id: str,
        summary: Optional[dict] = None,
        bundle: Optional[dict] = None,
    ) -> str:
        """Finish a task.  Remote workers attach a result bundle, which
        is ingested *before* the queue flips to done — a crash in between
        re-runs the task and the content-addressed rows dedupe."""
        summary = dict(summary or {})
        if bundle is not None:
            with ResultStore(self.store_path) as store:
                summary["ingest"] = ingest_bundle(store, bundle)
        with self._work_queue() as q:
            outcome = q.complete(campaign, lease_id, summary)
        if outcome == "done":
            job = self.job(campaign)
            if job is not None:
                self._journal(EVENT_DONE, job, **summary)
                with self._lock:
                    job.cells = int(summary.get("cells", 0) or 0)
                self._finish(job, DONE, None)
        return outcome

    def fail_task(
        self,
        campaign: str,
        lease_id: str,
        error: str,
        retryable: bool = True,
    ) -> str:
        with self._work_queue() as q:
            task = q.task(campaign)
            cancelling = task is not None and task.cancel_requested
            outcome = q.fail(campaign, lease_id, error, retryable=retryable)
        job = self.job(campaign)
        if job is None or outcome == "duplicate":
            return outcome
        if cancelling or job.cancel_event.is_set():
            self._journal(EVENT_CANCELLED, job)
            self._finish(job, CANCELLED, None)
        elif outcome == "retried":
            with self._lock:
                job.state = PENDING
            self._emit(job, {"event": "retry", "error": error})
            self._emit(job, {"event": "state", "state": PENDING})
        elif outcome == "failed":
            self._journal(EVENT_FAILED, job, error=error)
            self._finish(job, FAILED, error)
        return outcome

    # ----------------------------------------------------- worker registry

    def drain_worker(self, name: str) -> dict:
        """Set the durable drain directive for one worker; it observes
        it on its next heartbeat or lease request."""
        with self._work_queue() as q:
            return q.drain_worker(name)

    def deregister_worker(self, name: str) -> None:
        """A worker's clean exit, reported by the worker after a drain.

        Nothing calls this for a worker that died: its row stays
        ``active`` with a growing heartbeat age, and its lease returns
        to the queue through ordinary expiry."""
        with self._work_queue() as q:
            q.deregister_worker(name)

    def workers(self, include_exited: bool = False) -> List[dict]:
        with self._work_queue() as q:
            return q.workers(include_exited=include_exited)

    # -------------------------------------------------------------- status

    def fabric_status(self) -> dict:
        """Queue + tenant snapshot feeding ``GET /fabric/status`` and the
        per-tenant Prometheus series."""
        with self._work_queue() as q:
            expired_check = q.status()
        return expired_check

    def metrics(self) -> dict:
        data = super().metrics()
        status = self.fabric_status()
        data["fabric"] = status
        registered = {w["name"] for w in status.get("workers", [])}
        leased = {
            lease["owner"] for lease in status["leases"] if lease["owner"]
        }
        data["workers"] = len(registered | leased)
        return data

    # ------------------------------------------------------------ shutdown

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Stop accepting submits; ``drain=True`` waits for the queue to
        run dry (workers keep leasing and completing while we wait)."""
        with self._lock:
            already = self._stopping
        if drain and not already:
            deadline = (
                None if timeout is None else self._clock() + float(timeout)
            )
            while True:
                with self._work_queue() as q:
                    expired = q.sweep()
                    depth = q.depth()
                if expired:
                    self._reconcile_expired(expired)
                if depth == 0:
                    break
                if deadline is not None and self._clock() >= deadline:
                    break
                self._sleep(0.05)
        super().shutdown(drain=drain, timeout=timeout)


__all__ = ["Coordinator", "DEFAULT_LEASE_TTL_S"]
