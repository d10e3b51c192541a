"""The campaign scheduler: a persistent, journaled priority job queue.

Campaigns submitted to the service are queued here, journaled into the
results warehouse's events table, and dispatched to worker threads that
run them through :mod:`repro.exec`.  Design points:

* **Durability** — every state transition (``service_submitted``,
  ``service_started``, ``service_done`` / ``service_failed`` /
  ``service_cancelled``) is journaled into the store *before* the
  in-memory state changes.  :meth:`Scheduler.resume_pending` replays the
  journal at startup and re-enqueues every campaign whose last recorded
  state is not terminal, so a killed or drained service picks up exactly
  where it left off.  Re-running an interrupted campaign is safe and
  cheap: its completed trials are already in the warehouse, so the
  executor satisfies them from the store cache without simulating.
* **Dedup** — workers run each campaign with a fresh
  :class:`repro.store.StoreCache`, so any trial whose content-addressed
  ``trial_identity`` key is already in the warehouse is served without
  simulation.  A resubmitted identical campaign therefore completes
  near-instantly with zero new simulations.
* **Backpressure** — the queue is bounded; :meth:`submit` raises
  :class:`QueueFull` when ``max_pending`` campaigns are waiting, which
  the HTTP layer maps to ``429 Retry-After``.
* **Cancellation** — pending campaigns are skipped when dequeued;
  running campaigns are interrupted at the next trial-completion
  boundary (trials already finished stay cached and stored).
* **Drain** — :meth:`shutdown` with ``drain=True`` runs the queue dry
  first; with ``drain=False`` (the SIGTERM path) workers stop after the
  campaign they are on, leaving pending campaigns journaled for the next
  service instance to resume.
"""

from __future__ import annotations

import itertools
import queue
import sqlite3
import threading
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.exec import Executor, close_pools
from repro.exec.telemetry import default_clock
from repro.faults import inject
from repro.faults.breaker import BreakerOpen, get_breaker
from repro.service.specs import CampaignSpec, execute_campaign, parse_campaign_spec

#: Journal event names (stored in the warehouse events table).
EVENT_SUBMITTED = "service_submitted"
EVENT_STARTED = "service_started"
EVENT_DONE = "service_done"
EVENT_FAILED = "service_failed"
EVENT_CANCELLED = "service_cancelled"

#: Campaign lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

_TERMINAL_EVENTS = {EVENT_DONE, EVENT_FAILED, EVENT_CANCELLED}


class QueueFull(RuntimeError):
    """The pending-campaign queue is at capacity (HTTP 429)."""

    def __init__(self, depth: int, retry_after_s: int = 5):
        self.depth = depth
        self.retry_after_s = retry_after_s
        super().__init__(f"campaign queue full ({depth} pending)")


class _Cancelled(Exception):
    """Raised inside a running campaign when cancellation is requested."""


@dataclass
class CampaignJob:
    """In-memory state of one submitted campaign."""

    id: str
    spec: CampaignSpec
    priority: int = 0
    tenant: str = "default"
    state: str = PENDING
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    done: int = 0
    total: int = 0
    statuses: Dict[str, int] = field(default_factory=dict)
    cells: int = 0
    cancel_event: threading.Event = field(default_factory=threading.Event)
    events: List[dict] = field(default_factory=list)

    def snapshot(self) -> dict:
        """JSON-ready status view served by ``GET /campaigns/{id}``."""
        return {
            "id": self.id,
            "kind": self.spec.kind,
            "state": self.state,
            "priority": self.priority,
            "tenant": self.tenant,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "progress": {"done": self.done, "total": self.total},
            "trial_statuses": dict(self.statuses),
            "cells": self.cells,
            "runs": self.spec.run_names(),
            "spec": self.spec.canonical(),
            "events": len(self.events),
        }


def run_campaign(
    spec: CampaignSpec,
    store_path: Optional[str] = None,
    jobs: int = 1,
    progress=None,
    manifest: Optional[str] = None,
) -> dict:
    """Run one campaign, recording into the warehouse at ``store_path``.

    The one front door of every campaign: the CLI's campaign commands,
    the scheduler and the fabric worker all call this, so a campaign's
    executor is built and reported in one place.

    A fresh store connection and store-backed cache per campaign:
    trials the warehouse already holds are served without simulation
    (whole-campaign dedup), and computed trials write through to the
    warehouse as they complete, so an interrupted campaign loses nothing
    it finished.  With no ``store_path`` the trials use the process-wide
    memory cache and nothing is recorded.  ``jobs > 1`` runs the trials
    on the process's warm worker pool; ``manifest`` appends a JSONL run
    log.  Returns :func:`execute_campaign`'s summary plus the executor
    telemetry under ``"exec"`` (``"text"`` is its one-line report).
    """
    from repro.store import StoreCache, open_store

    with open_store(store_path) if store_path else nullcontext() as store:
        with Executor(
            jobs=jobs,
            cache=StoreCache(store) if store_path else None,
            progress=progress,
            manifest_path=manifest,
            store=store,
            store_run=spec.run_name(),
        ) as executor:
            summary = execute_campaign(spec, store, executor)
    telemetry = executor.telemetry
    summary["exec"] = {
        "jobs": telemetry.jobs,
        "ok": telemetry.ok,
        "cached": telemetry.cached,
        "wall_s": round(telemetry.wall_s, 4),
        "mode": telemetry.mode,
        "text": telemetry.summary(),
    }
    return summary


class Scheduler:
    """Priority queue + worker pool turning campaign specs into results.

    Parameters
    ----------
    store_path:
        The warehouse every worker records into (and journals through).
        Each worker thread opens its own connection; WAL mode makes the
        concurrent writers safe.
    workers:
        Worker *threads* (each runs one campaign at a time).  ``0`` is
        valid and useful: campaigns queue and journal but nothing runs —
        the drain/resume tests and a paused service use this.
    exec_jobs:
        Worker *processes* each campaign's :class:`~repro.exec.Executor`
        may use for its trials (per-campaign concurrency limit).  They
        are spawned by the first campaign and reused by the next ones;
        :meth:`shutdown` stops them.
    max_pending:
        Bounded-queue capacity; beyond it :meth:`submit` raises
        :class:`QueueFull`.
    clock:
        Injectable time source for every timestamp and long-poll
        deadline the scheduler produces (defaults to the sanctioned
        :func:`repro.exec.telemetry.default_clock` seam).  Tests pass a
        fake monotonically advancing clock instead of sleeping on real
        time.
    """

    def __init__(
        self,
        store_path: str,
        workers: int = 1,
        exec_jobs: int = 1,
        max_pending: int = 64,
        clock: Callable[[], float] = default_clock,
    ):
        # Campaigns evaluate envelopes, which need SciPy's optimizer:
        # import it (about half a second) before the first campaign
        # rather than inside it.  Executor workers never import it.
        import scipy.optimize  # noqa: F401

        self.store_path = str(store_path)
        self.exec_jobs = max(1, int(exec_jobs))
        self.max_pending = max(0, int(max_pending))
        self._clock = clock
        self.started_at = clock()
        self._lock = threading.RLock()
        self._events_cond = threading.Condition(self._lock)
        self._jobs: Dict[str, CampaignJob] = {}
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue()
        self._seq = itertools.count()
        self._id_seq = itertools.count(1)
        self._stopping = False
        self._workers: List[threading.Thread] = []
        for i in range(max(0, int(workers))):
            thread = threading.Thread(
                target=self._worker_loop, name=f"repro-service-worker-{i}",
                daemon=True,
            )
            thread.start()
            self._workers.append(thread)

    # ------------------------------------------------------------- journal

    def _journal(self, event: str, job: CampaignJob, **payload) -> None:
        # One short-lived connection per journal write: SQLite connections
        # are thread-bound, and journal writes come from both HTTP submit
        # threads and worker threads.  Transitions are rare enough that
        # the open cost is noise next to a single trial.
        #
        # Degradation contract: EVENT_SUBMITTED must land durably before
        # the job is exposed (a failure rejects the submission), but a
        # later transition failing to journal must not kill a running
        # campaign — the breaker opens, /healthz reports degraded, and
        # resume_pending simply re-runs the campaign (idempotent thanks
        # to warehouse dedup).
        from repro.store.sharded import open_store
        from repro.store.warehouse import StoreError

        def write():
            inject.fault_point("service.journal", event=event)
            with open_store(self.store_path) as store:
                store.record_event(
                    event,
                    campaign=job.id,
                    payload={
                        "priority": job.priority,
                        "tenant": job.tenant,
                        "spec": job.spec.canonical(),
                        **payload,
                    },
                )

        breaker = get_breaker("service-journal")
        if not breaker.allow():
            if event == EVENT_SUBMITTED:
                raise BreakerOpen(breaker.name, breaker.status().get("cause"))
            return
        try:
            write()
        except (StoreError, sqlite3.Error, OSError) as exc:
            breaker.record_failure(exc)
            if event == EVENT_SUBMITTED:
                raise
            warnings.warn(
                f"repro.service: journal write for {event!r} failed; "
                f"continuing degraded ({type(exc).__name__}: {exc})"
            )
        else:
            breaker.record_success()

    # -------------------------------------------------------------- submit

    def submit(
        self,
        spec: CampaignSpec,
        priority: int = 0,
        campaign_id: Optional[str] = None,
        tenant: str = "default",
    ) -> CampaignJob:
        """Queue a campaign; returns its job (raises QueueFull/RuntimeError).

        Higher ``priority`` runs earlier; ties run in submission order.
        """
        with self._lock:
            if self._stopping:
                raise RuntimeError("scheduler is shutting down")
            depth = self.queue_depth()
            if self.max_pending and depth >= self.max_pending:
                raise QueueFull(depth)
            if campaign_id is None:
                campaign_id = (
                    f"c{next(self._id_seq):04d}-{spec.fingerprint()[:8]}"
                )
            if campaign_id in self._jobs:
                raise RuntimeError(f"duplicate campaign id {campaign_id!r}")
            job = CampaignJob(
                id=campaign_id,
                spec=spec,
                priority=int(priority),
                tenant=str(tenant or "default"),
                submitted_at=self._clock(),
            )
            # Journal before exposing the job: a crash after this line
            # leaves a resumable record, never a silently lost campaign.
            # The journal commit deliberately happens under the lock so
            # no reader can observe a job whose submitted record could
            # still be lost; the write is a bounded single-row WAL
            # commit, not open-ended I/O.
            # lint: disable=lock-held-blocking -- journal-before-expose durability: the submitted record must be durable before any thread can see the job; bounded single-row WAL commit
            self._journal(EVENT_SUBMITTED, job)
            self._jobs[campaign_id] = job
            self._emit(job, {"event": "state", "state": PENDING})
            # Dispatch seam: the base scheduler hands the job to its
            # in-process worker threads; the fabric Coordinator overrides
            # this to enqueue into the durable leased work queue instead.
            # lint: disable=lock-held-blocking -- in-process dispatch puts on an unbounded PriorityQueue (never blocks); the fabric override must enqueue durably before submit returns or an accepted campaign could vanish on crash
            self._dispatch(job)
        return job

    def _dispatch(self, job: CampaignJob) -> None:
        self._queue.put((-job.priority, next(self._seq), job.id))

    def resume_pending(self) -> List[str]:
        """Re-enqueue campaigns the journal says never finished.

        Scans the store's events table for ``service_*`` records and
        replays every campaign whose latest event is ``submitted`` or
        ``started``.  Returns the resumed campaign ids (in original
        submission order).
        """
        from repro.store.sharded import open_store

        inject.fault_point("service.resume")
        last: Dict[str, Tuple[str, dict]] = {}
        order: List[str] = []
        with open_store(self.store_path) as store:
            journal = store.events()
        for event in journal:
            name = event.get("event", "")
            if not name.startswith("service_"):
                continue
            campaign = event.get("campaign", "")
            if campaign and campaign not in last:
                order.append(campaign)
            if campaign:
                last[campaign] = (name, event)
        resumed = []
        for campaign in order:
            name, event = last[campaign]
            if name in _TERMINAL_EVENTS:
                continue
            # The jobs table is shared with HTTP submit threads; check
            # for an already-registered id under the lock (submit would
            # also reject the duplicate, but only with an exception).
            with self._lock:
                already_known = campaign in self._jobs
            if already_known:
                continue
            try:
                spec = parse_campaign_spec(event.get("spec") or {})
            except Exception:
                continue  # journal rows from incompatible versions
            job = self.submit(
                spec,
                priority=int(event.get("priority", 0) or 0),
                campaign_id=campaign,
                tenant=str(event.get("tenant", "default") or "default"),
            )
            self._emit(job, {"event": "resumed"})
            resumed.append(job.id)
        return resumed

    # -------------------------------------------------------------- status

    def job(self, campaign_id: str) -> Optional[CampaignJob]:
        with self._lock:
            return self._jobs.get(campaign_id)

    def jobs(self) -> List[CampaignJob]:
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_at)

    def queue_depth(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == PENDING)

    def running_count(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == RUNNING)

    def cancel(self, campaign_id: str) -> bool:
        """Request cancellation; True if the campaign can still stop."""
        with self._lock:
            job = self._jobs.get(campaign_id)
            if job is None or job.state in TERMINAL_STATES:
                return False
            job.cancel_event.set()
            if job.state == PENDING:
                # Mark now (journal included, so a restart doesn't resume
                # it); the worker discards the queue entry when dequeued.
                # lint: disable=lock-held-blocking -- cancel must journal before the state flip is visible, or a crash between the two resurrects a cancelled campaign; bounded single-row WAL commit
                self._journal(EVENT_CANCELLED, job)
                self._finish(job, CANCELLED, None)
            return True

    def metrics(self) -> dict:
        """Counter snapshot feeding the Prometheus endpoint."""
        with self._lock:
            states: Dict[str, int] = {}
            statuses: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
                for status, count in job.statuses.items():
                    statuses[status] = statuses.get(status, 0) + count
            uptime = max(1e-9, self._clock() - self.started_at)
            finished = statuses.get("ok", 0) + statuses.get("cached", 0)
            return {
                "queue_depth": states.get(PENDING, 0),
                "running": states.get(RUNNING, 0),
                "campaign_states": states,
                "trial_statuses": statuses,
                "trials_per_second": finished / uptime,
                "cache_hit_rate": (
                    statuses.get("cached", 0) / finished if finished else 0.0
                ),
                "uptime_s": uptime,
                "workers": len(self._workers),
            }

    # -------------------------------------------------------------- events

    def _emit(self, job: CampaignJob, event: dict) -> None:
        with self._events_cond:
            job.events.append(
                {"seq": len(job.events), "time": self._clock(), **event}
            )
            self._events_cond.notify_all()

    def events_since(self, campaign_id: str, after: int = 0) -> List[dict]:
        with self._lock:
            job = self._jobs.get(campaign_id)
            if job is None:
                return []
            return list(job.events[max(0, after):])

    def wait_events(
        self, campaign_id: str, after: int = 0, timeout: float = 10.0
    ) -> List[dict]:
        """Long-poll: block until events beyond ``after`` exist (or timeout)."""
        deadline = self._clock() + max(0.0, timeout)
        with self._events_cond:
            while True:
                job = self._jobs.get(campaign_id)
                if job is None:
                    return []
                if len(job.events) > after:
                    return list(job.events[max(0, after):])
                if job.state in TERMINAL_STATES:
                    return []
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return []
                self._events_cond.wait(remaining)

    # ------------------------------------------------------------- workers

    def _worker_loop(self) -> None:
        while True:
            _prio, _seq, campaign_id = self._queue.get()
            if campaign_id is None:  # shutdown sentinel
                return
            with self._lock:
                job = self._jobs.get(campaign_id)
                if job is None or job.state != PENDING:
                    continue  # cancelled while queued
                job.state = RUNNING
                job.started_at = self._clock()
            self._journal(EVENT_STARTED, job)
            self._emit(job, {"event": "state", "state": RUNNING})
            try:
                summary = self._run_campaign(job)
            except _Cancelled:
                self._journal(EVENT_CANCELLED, job)
                self._finish(job, CANCELLED, None)
            except Exception as exc:  # noqa: BLE001 - report any failure
                error = f"{type(exc).__name__}: {exc}"
                self._journal(EVENT_FAILED, job, error=error)
                self._finish(job, FAILED, error)
            else:
                self._journal(EVENT_DONE, job, **summary)
                with self._lock:
                    job.cells = int(summary.get("cells", 0))
                self._finish(job, DONE, None)

    def _run_campaign(self, job: CampaignJob) -> dict:
        def progress(record, done, total):
            with self._lock:
                job.done, job.total = done, total
                job.statuses[record.status] = (
                    job.statuses.get(record.status, 0) + 1
                )
            self._emit(
                job,
                {
                    "event": "trial",
                    "label": record.label,
                    "status": record.status,
                    "done": done,
                    "total": total,
                },
            )
            if job.cancel_event.is_set():
                raise _Cancelled()

        summary = run_campaign(job.spec, self.store_path, self.exec_jobs, progress)
        summary.pop("result", None)  # the journal keeps the JSON part
        return summary

    def _finish(self, job: CampaignJob, state: str, error: Optional[str]) -> None:
        with self._lock:
            job.state = state
            job.error = error
            job.finished_at = self._clock()
        self._emit(job, {"event": "state", "state": state, "error": error})

    # ------------------------------------------------------------ shutdown

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the workers.

        ``drain=True`` finishes every queued campaign first (the
        sentinels sort *after* all real work).  ``drain=False`` — the
        SIGTERM path — stops each worker after the campaign it is
        currently running (sentinels sort *before* pending work); queued
        campaigns stay journaled as pending, ready for
        :meth:`resume_pending` in the next service instance.
        """
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        sentinel_priority = float("inf") if drain else float("-inf")
        for _ in self._workers:
            self._queue.put((sentinel_priority, next(self._seq), None))
        for thread in self._workers:
            thread.join(timeout)
        # The campaigns' warm worker pools are idle now; a campaign still
        # running past ``timeout`` checks its pool in later, and the
        # exit hook closes that one.
        close_pools()
        # Wake any long-pollers so they observe the final state.
        with self._events_cond:
            self._events_cond.notify_all()


__all__ = [
    "Scheduler",
    "run_campaign",
    "CampaignJob",
    "QueueFull",
    "PENDING",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
]
