"""The fabric worker agent: lease → execute → report, survivably.

A worker is a separate process (``repro fabric worker``), optionally on
a different machine, that pulls campaign leases from the coordinator
and runs them through :func:`repro.service.scheduler.run_campaign`, the
same function the single-process scheduler uses — so results are
bit-identical by construction.

Two store modes:

* **shared** (``store_path`` given): the worker opens the coordinator's
  warehouse file directly (same host / shared filesystem).  Trials
  write through as they complete; ``complete`` ships only the summary.
* **remote** (no ``store_path``): the worker runs against a scratch
  store and ships a :mod:`repro.fabric.wire` result bundle back on
  ``complete``; the coordinator ingests it into the shared warehouse.

Crash-safety is lease-based, not protocol-based: a worker that is
SIGKILLed mid-campaign simply stops heartbeating, its lease expires,
and the task returns to the queue for the next worker.  Completed
trials are already durable (shared mode) or recomputed deterministically
(remote mode), and content-addressed keys dedupe either way.  The
``complete``, ``fail`` and ``deregister`` HTTP calls ride the unified
:class:`repro.faults.RetryPolicy`.  A lease request is one attempt: the
lease loop backs off itself (capped, jittered, and cut short by
:meth:`FabricWorker.stop`), and a heartbeat is never retried.

Drain is the *graceful* exit the supervisor uses for scale-down and
rolling upgrades: a ``{"drain": true}`` lease response or a heartbeat
carrying ``drain`` tells the worker to stop taking work.  Under the
default ``finish`` policy it completes the lease it holds first; under
``handback`` it fails the lease retryable immediately.  Either way it
deregisters and exits, so nothing is lost (the queue keeps the task)
and nothing doubles (content-addressed trials dedupe).
"""

from __future__ import annotations

import tempfile
import threading
import zlib
from pathlib import Path
from typing import Callable, List, Optional

from repro.exec import close_pools
from repro.exec.telemetry import default_clock
from repro.faults import inject
from repro.faults.retry import RetryPolicy
from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import run_campaign
from repro.service.specs import parse_campaign_spec


#: Statuses of a transient failure: a dropped connection (0), coordinator
#: backpressure (429) and a coordinator that is not ready (503).
TRANSIENT_STATUSES = (0, 429, 503)


class _LeaseLost(Exception):
    """The coordinator re-leased our task; abandon it quietly."""


class _CancelRequested(Exception):
    """The campaign was cancelled; abort at the trial boundary."""


class _DrainHandback(Exception):
    """Drain directive under the handback policy: return the lease."""


def lease_to_wire(lease) -> dict:
    """Flatten a :class:`repro.fabric.queue.Lease` for JSON transport."""
    payload = lease.spec if isinstance(lease.spec, dict) else {}
    return {
        "campaign": lease.campaign,
        "lease_id": lease.lease_id,
        "tenant": lease.tenant,
        "attempt": lease.attempt,
        "expires_at": lease.expires_at,
        "spec": payload.get("spec", payload),
    }


class LocalTransport:
    """Drive a :class:`~repro.fabric.coordinator.Coordinator` in-process
    (tests, benchmarks, chaos harnesses — no HTTP hop)."""

    def __init__(self, coordinator):
        self._coordinator = coordinator

    def lease(
        self, worker: str, ttl_s: float, version: str = ""
    ) -> Optional[dict]:
        lease = self._coordinator.lease_task(
            worker, ttl_s=ttl_s, version=version
        )
        if lease is None or isinstance(lease, dict):
            return lease  # idle, or a {"drain": True} directive
        return lease_to_wire(lease)

    def heartbeat(
        self,
        campaign: str,
        lease_id: str,
        ttl_s: float,
        progress: List[dict],
    ) -> dict:
        return self._coordinator.heartbeat_task(
            campaign, lease_id, ttl_s=ttl_s, progress=progress
        )

    def complete(
        self,
        campaign: str,
        lease_id: str,
        summary: dict,
        bundle: Optional[dict],
    ) -> dict:
        outcome = self._coordinator.complete_task(
            campaign, lease_id, summary=summary, bundle=bundle
        )
        return {"outcome": outcome}

    def fail(
        self, campaign: str, lease_id: str, error: str, retryable: bool
    ) -> dict:
        outcome = self._coordinator.fail_task(
            campaign, lease_id, error, retryable=retryable
        )
        return {"outcome": outcome}

    def deregister(self, worker: str) -> dict:
        self._coordinator.deregister_worker(worker)
        return {"ok": True}


class HttpTransport:
    """The production transport: the coordinator's HTTP fabric endpoints
    via :class:`ServiceClient`, with transient failures (connection drops
    and backpressure) of the reports retried through one
    :class:`RetryPolicy`."""

    RETRYABLE_STATUSES = TRANSIENT_STATUSES

    def __init__(
        self,
        base_url: str,
        retry: Optional[RetryPolicy] = None,
        timeout_s: float = 30.0,
    ):
        self.client = ServiceClient(base_url, timeout_s=timeout_s)
        if retry is None:
            retry = RetryPolicy(
                max_attempts=None,
                backoff_s=0.2,
                backoff_cap_s=5.0,
                deadline_s=60.0,
                jitter=0.5,
            )
        self._retry = retry

    def _call(self, fn):
        def retryable(exc: BaseException) -> bool:
            return (
                isinstance(exc, ServiceError)
                and exc.status in self.RETRYABLE_STATUSES
            )

        return self._retry.call(fn, retryable=retryable)

    def lease(
        self, worker: str, ttl_s: float, version: str = ""
    ) -> Optional[dict]:
        # One attempt, not retried: ``FabricWorker.run`` backs off on a
        # failed lease in a pause that ``stop()`` ends, where a retry
        # loop here would keep a stopping worker polling a coordinator
        # that is gone.
        return self.client.fabric_lease(worker, ttl_s=ttl_s, version=version)

    def heartbeat(
        self,
        campaign: str,
        lease_id: str,
        ttl_s: float,
        progress: List[dict],
    ) -> dict:
        # Heartbeats are deliberately *not* retried: a missed beat is
        # recoverable (the next one extends the lease) and retries would
        # delay noticing a lost lease.
        return self.client.fabric_heartbeat(
            campaign, lease_id, ttl_s=ttl_s, progress=progress
        )

    def complete(
        self,
        campaign: str,
        lease_id: str,
        summary: dict,
        bundle: Optional[dict],
    ) -> dict:
        return self._call(
            lambda: self.client.fabric_complete(
                campaign, lease_id, summary=summary, bundle=bundle
            )
        )

    def fail(
        self, campaign: str, lease_id: str, error: str, retryable: bool
    ) -> dict:
        return self._call(
            lambda: self.client.fabric_fail(
                campaign, lease_id, error, retryable=retryable
            )
        )

    def deregister(self, worker: str) -> dict:
        return self._call(lambda: self.client.fabric_deregister(worker))


class FabricWorker:
    """Lease loop: claim a campaign, execute it, report, repeat."""

    def __init__(
        self,
        transport,
        name: str = "fabric-worker",
        store_path: Optional[str] = None,
        scratch_dir: Optional[str] = None,
        jobs: int = 1,
        poll_s: float = 0.5,
        ttl_s: float = 30.0,
        version: str = "",
        drain_policy: str = "finish",
        sleep: Optional[Callable[[float], None]] = None,
        clock: Callable[[], float] = default_clock,
        log: Optional[Callable[[str], None]] = None,
    ):
        if drain_policy not in ("finish", "handback"):
            raise ValueError(
                f"drain_policy must be 'finish' or 'handback', "
                f"got {drain_policy!r}"
            )
        self.transport = transport
        self.name = name
        self.store_path = str(store_path) if store_path else None
        self.scratch_dir = scratch_dir
        self.jobs = max(1, int(jobs))
        self.poll_s = float(poll_s)
        self.ttl_s = float(ttl_s)
        #: Code version reported on every lease request; the supervisor
        #: uses it to pick rolling-upgrade victims.
        self.version = str(version)
        #: What a drain directive does to a held lease: ``finish`` runs
        #: it to completion before exiting (nothing recomputed),
        #: ``handback`` fails it retryable immediately (fastest exit,
        #: the next worker re-runs it — content addressing dedupes).
        self.drain_policy = drain_policy
        #: True once a drain directive has been observed; the lease loop
        #: exits and the worker deregisters.
        self.drained = False
        self._clock = clock
        self._log = log or (lambda msg: None)
        self._stop = threading.Event()
        #: Pauses between lease polls; by default :meth:`stop` ends one.
        self._sleep = sleep or self._stop.wait
        #: Pause after consecutive failed lease requests: from ``poll_s``,
        #: doubling up to 5 s, with a per-worker jitter so a fleet backing
        #: off one coordinator's 429s does not poll in step.  A ``once``
        #: run gives up after 60 s of transient failures.
        self._lease_backoff = RetryPolicy(
            max_attempts=None,
            backoff_s=self.poll_s,
            backoff_cap_s=max(5.0, self.poll_s),
            deadline_s=60.0,
            jitter=0.5,
            seed=zlib.crc32(name.encode()),
            clock=clock,
        )

    def stop(self) -> None:
        """Finish the current campaign, then exit the lease loop."""
        self._stop.set()

    # ------------------------------------------------------------- the loop

    def run(self, once: bool = False, max_tasks: Optional[int] = None) -> int:
        """Pull and execute leases; returns how many tasks were handled.

        ``once=True`` exits at the first empty poll (smoke tests drain
        the queue and stop), or when a lease request fails for good: at
        once on a status that is not transient, else after 60 s of
        transient failures.  Otherwise the loop polls until
        :meth:`stop`, backing off while lease requests fail.
        """
        handled = 0
        failures = 0  # consecutive failed lease requests
        failing_since = 0.0
        while not self._stop.is_set():
            try:
                lease = self.transport.lease(
                    self.name, self.ttl_s, self.version
                )
            except ServiceError as exc:
                if failures == 0:
                    failing_since = self._clock()
                failures += 1
                pause = self._lease_backoff.backoff(failures)
                if once and (
                    exc.status not in TRANSIENT_STATUSES
                    or self._lease_backoff.give_up(
                        failing_since, failures, pause
                    )
                ):
                    self._log(f"{self.name}: lease failed ({exc}); giving up")
                    break
                self._log(
                    f"{self.name}: lease failed ({exc}); "
                    f"retrying in {pause:.2f}s"
                )
                self._sleep(pause)
                continue
            failures = 0
            if isinstance(lease, dict) and lease.get("drain"):
                # Durable drain directive instead of work: we hold no
                # lease right now, so exit immediately.
                self._log(f"{self.name}: drain directive; exiting")
                self.drained = True
                break
            if lease is None:
                if once:
                    break
                self._sleep(self.poll_s)
                continue
            self._run_lease(lease)
            handled += 1
            if self.drained:
                self._log(
                    f"{self.name}: drained after finishing "
                    f"{lease['campaign']}; exiting"
                )
                break
            if max_tasks is not None and handled >= max_tasks:
                break
        # No more leases: stop the warm executor workers they ran on.
        close_pools()
        if self.drained:
            # Hand the registry slot back so the supervisor's roll can
            # proceed; best-effort — an unreachable coordinator just
            # leaves the row to age out by heartbeat timeout.
            try:
                self.transport.deregister(self.name)
            except (ServiceError, OSError) as exc:
                self._log(f"{self.name}: deregister lost: {exc}")
        return handled

    # ------------------------------------------------------------ one lease

    def _run_lease(self, lease: dict) -> None:
        campaign = lease["campaign"]
        lease_id = lease["lease_id"]
        self._log(
            f"{self.name}: leased {campaign} "
            f"(attempt {lease.get('attempt')})"
        )
        state = {"abort": False, "cancel": False, "drain": False}
        pending: List[dict] = []
        lock = threading.Lock()
        stop_beat = threading.Event()

        def send_beat() -> None:
            with lock:
                batch, pending[:] = list(pending), []
            try:
                inject.fault_point(
                    "fabric.heartbeat",
                    campaign=campaign,
                    attempt=lease.get("attempt"),
                )
                beat = self.transport.heartbeat(
                    campaign, lease_id, self.ttl_s, batch
                )
            except Exception:  # noqa: BLE001 - a missed beat is recoverable
                with lock:
                    pending[:0] = batch  # don't lose the progress batch
                return
            if not beat.get("ok", False):
                state["abort"] = True
            if beat.get("cancel", False):
                state["cancel"] = True
            if beat.get("drain", False):
                state["drain"] = True

        def beat_loop() -> None:
            # Three beats per TTL: one lost heartbeat never kills a lease.
            while not stop_beat.wait(self.ttl_s / 3.0):
                send_beat()

        def progress(record, done, total) -> None:
            with lock:
                pending.append(
                    {
                        "event": "trial",
                        "label": record.label,
                        "status": record.status,
                        "done": done,
                        "total": total,
                    }
                )
            if state["abort"]:
                raise _LeaseLost()
            if state["cancel"]:
                raise _CancelRequested()
            if state["drain"] and self.drain_policy == "handback":
                raise _DrainHandback()

        beater = threading.Thread(
            target=beat_loop, name=f"{self.name}-heartbeat", daemon=True
        )
        beater.start()
        try:
            summary, bundle = self._execute(lease, progress)
        except _LeaseLost:
            self._log(f"{self.name}: lease lost for {campaign}; abandoning")
            return
        except _CancelRequested:
            self._report_fail(
                campaign, lease_id, "cancelled by request", retryable=False
            )
            return
        except _DrainHandback:
            # Hand the lease back retryable: the task requeues for a
            # surviving worker, and content-addressed trials mean the
            # partial work already done is never recomputed into
            # different bytes.
            self._log(f"{self.name}: draining; handing back {campaign}")
            self._report_fail(
                campaign, lease_id, "drained: lease handed back",
                retryable=True,
            )
            self.drained = True
            return
        except Exception as exc:  # noqa: BLE001 - report typed failure
            self._report_fail(
                campaign, lease_id, f"{type(exc).__name__}: {exc}",
                retryable=True,
            )
            return
        finally:
            stop_beat.set()
            beater.join(timeout=5.0)
        send_beat()  # final flush so watchers see the last trials
        if state["drain"]:
            # Finish-then-exit: the lease ran to completion below; the
            # run loop exits once this report lands.
            self.drained = True
        if state["abort"]:
            return  # completion would be stale; the new lease owns it
        try:
            self.transport.complete(campaign, lease_id, summary, bundle)
        except ServiceError as exc:
            self._log(f"{self.name}: complete failed for {campaign}: {exc}")
        else:
            self._log(f"{self.name}: completed {campaign}")

    def _report_fail(
        self, campaign: str, lease_id: str, error: str, retryable: bool
    ) -> None:
        try:
            self.transport.fail(campaign, lease_id, error, retryable)
        except ServiceError as exc:
            self._log(f"{self.name}: fail report for {campaign} lost: {exc}")

    # ------------------------------------------------------------- execute

    def _execute(self, lease: dict, progress):
        spec = parse_campaign_spec(lease["spec"])
        if self.store_path is not None:
            store_file, bundle_runs = self.store_path, None
        else:
            scratch = Path(
                self.scratch_dir
                or tempfile.mkdtemp(prefix=f"repro-{self.name}-")
            )
            scratch.mkdir(parents=True, exist_ok=True)
            store_file = str(scratch / f"{lease['campaign']}.db")
            bundle_runs = spec.run_names()
        summary = run_campaign(spec, store_file, self.jobs, progress)
        summary.pop("result", None)  # only the JSON part travels
        bundle = None
        if bundle_runs is not None:
            from repro.fabric.wire import export_bundle
            from repro.store import open_store

            with open_store(store_file) as store:
                names = [n for n in bundle_runs if store.has_run(n)]
                bundle = export_bundle(store, names)
        summary["worker"] = self.name
        return summary, bundle


__all__ = [
    "FabricWorker",
    "LocalTransport",
    "HttpTransport",
    "lease_to_wire",
]
