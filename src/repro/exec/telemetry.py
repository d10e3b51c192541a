"""Run telemetry: per-job records, campaign aggregates, JSONL manifests.

Every :meth:`repro.exec.Executor.run` call is one *campaign*.  The
executor produces a :class:`JobRecord` per job (status, attempts,
wall-clock, worker-side cache hits/misses); :class:`CampaignTelemetry`
aggregates them across campaigns; :class:`RunManifest` appends the whole
story — a ``campaign_start`` line, one line per job, a ``campaign_end``
summary — to a JSONL file for offline inspection.  The optional
:class:`ProgressPrinter` renders per-job progress lines for the CLI.
"""

from __future__ import annotations

import base64
import json
import os
import sqlite3
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, List, Optional, Union

from repro.faults import inject
from repro.faults.breaker import CircuitBreaker, get_breaker

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.store.warehouse import ResultStore


def default_clock() -> float:
    """The one sanctioned wall-clock read in the codebase.

    Everything under ``repro.exec`` / ``repro.service`` that stamps
    telemetry takes an injectable ``clock`` callable defaulting to this
    function, so tests substitute a fake clock instead of sleeping and
    racing on real time, and the lint ``wall-clock`` rule can forbid
    ``time.time()`` everywhere else (``LintConfig.sanctioned_clock``
    names exactly this seam).
    """
    return time.time()  # lint: disable=wall-clock -- the sanctioned clock seam all telemetry injects

#: Job terminal states.  ``cached`` jobs were satisfied from the campaign
#: cache without running; ``timeout``/``crashed``/``failed`` describe the
#: *final* attempt of a job that exhausted its retries; ``quarantined``
#: marks a poison job pulled from rotation after repeatedly crashing its
#: worker (see ``Executor.poison_crashes``).
STATUS_OK = "ok"
STATUS_CACHED = "cached"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
STATUS_CRASHED = "crashed"
STATUS_QUARANTINED = "quarantined"


@dataclass
class JobRecord:
    """Telemetry of one job across all its attempts."""

    index: int
    label: str = ""
    key: str = ""
    status: str = "pending"
    attempts: int = 0
    wall_s: float = 0.0
    worker_hits: int = 0
    worker_misses: int = 0
    error: Optional[str] = None
    retried: bool = False

    def row(self) -> dict:
        return asdict(self)


@dataclass
class CampaignTelemetry:
    """Aggregate counters over every campaign an executor has run."""

    campaigns: int = 0
    jobs: int = 0
    ok: int = 0
    cached: int = 0
    failed: int = 0
    retries: int = 0
    wall_s: float = 0.0
    job_wall_s: float = 0.0
    worker_hits: int = 0
    worker_misses: int = 0
    #: Worker processes this executor started; a warm pool adds none.
    worker_spawns: int = 0
    mode: str = ""

    def absorb(self, records: List[JobRecord], wall_s: float, mode: str) -> None:
        self.campaigns += 1
        self.wall_s += wall_s
        self.mode = mode
        for record in records:
            self.jobs += 1
            self.job_wall_s += record.wall_s
            self.worker_hits += record.worker_hits
            self.worker_misses += record.worker_misses
            self.retries += max(0, record.attempts - 1)
            if record.status == STATUS_CACHED:
                self.cached += 1
            elif record.status == STATUS_OK:
                self.ok += 1
            else:
                self.failed += 1

    def summary(self) -> str:
        parts = [
            f"{self.jobs} jobs ({self.ok} run, {self.cached} cached"
            + (f", {self.failed} failed" if self.failed else "")
            + ")",
            f"{self.wall_s:.1f}s wall / {self.job_wall_s:.1f}s cpu",
        ]
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.worker_hits or self.worker_misses:
            parts.append(
                f"worker cache {self.worker_hits} hits / "
                f"{self.worker_misses} misses"
            )
        if self.mode:
            parts.append(f"mode={self.mode}")
        return "exec: " + ", ".join(parts)


class RunManifest:
    """Append-only JSONL journal of executor campaigns.

    Crash tolerance: the file handle is kept open across records, every
    record is written with a single ``write`` call and flushed to the OS
    immediately, and :meth:`close` fsyncs before closing.  A campaign
    that dies mid-run therefore leaves a readable prefix of complete
    lines rather than a truncated final record.
    """

    def __init__(
        self,
        path: Union[str, Path],
        clock: Callable[[], float] = default_clock,
    ):
        self.path = Path(path)
        self._handle: Optional[IO] = None
        self._clock = clock

    def _append(self, record: dict) -> None:
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "a")
        # Fault seam: journal-truncate/journal-corrupt tear this line the
        # way a crash mid-write would; readers must skip it, not die.
        line = inject.fault_value(
            "exec.manifest.line", json.dumps(record, sort_keys=True)
        )
        self._handle.write(line + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Flush, fsync, and close the journal (reopens lazily if reused)."""
        if self._handle is None or self._handle.closed:
            return
        try:
            self._handle.flush()
            inject.fault_point("exec.manifest.fsync")
            os.fsync(self._handle.fileno())
        except OSError:  # fsync is best-effort (e.g. special files)
            pass
        finally:
            self._handle.close()

    def __enter__(self) -> "RunManifest":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            self.close()
        except Exception:
            pass

    def _time(self) -> float:
        # Fault seam: clock-skew shifts this timestamp without touching
        # any payload — skewed telemetry must never change results.
        return inject.fault_value("exec.manifest.clock", self._clock())

    def campaign_start(self, campaign: str, jobs: int, workers: int, mode: str) -> None:
        self._append(
            {
                "event": "campaign_start",
                "campaign": campaign,
                "jobs": jobs,
                "workers": workers,
                "mode": mode,
                "time": self._time(),
            }
        )

    def job(self, campaign: str, record: JobRecord) -> None:
        self._append({"event": "job", "campaign": campaign, **record.row()})

    def campaign_end(
        self, campaign: str, records: List[JobRecord], wall_s: float, cache: dict
    ) -> None:
        statuses: dict = {}
        for record in records:
            statuses[record.status] = statuses.get(record.status, 0) + 1
        self._append(
            {
                "event": "campaign_end",
                "campaign": campaign,
                "statuses": statuses,
                "wall_s": round(wall_s, 4),
                "cache": cache,
                "time": self._time(),
            }
        )


class StoreSink:
    """Warehouse-backed campaign journal, the durable sibling of
    :class:`RunManifest`.

    Writes the same campaign_start / job / campaign_end story into a
    :class:`repro.store.ResultStore`'s events journal, groups each
    campaign under a store run (named after the campaign unless an
    explicit ``run_name`` pins every campaign to one run), and persists
    completed trial payloads as content-addressed ``trials`` rows.  All
    writes happen in the executor's parent process, so ``--jobs N``
    campaigns funnel through one connection.

    **Graceful degradation**: every store write goes through a named
    :class:`~repro.faults.breaker.CircuitBreaker`.  While the warehouse
    fails (locked beyond deadline, disk full, corrupt file) the breaker
    opens and writes *spill* to an append-only JSONL sideline file next
    to the store (``<store>.sideline.jsonl``) instead of being lost or
    crashing the campaign; ``repro store ingest --sideline`` replays the
    spill into the warehouse on recovery
    (:func:`repro.store.ingest.ingest_sideline`).  The breaker registers
    process-wide, so the service ``/healthz`` reports ``degraded`` with
    the cause while it is open.
    """

    def __init__(
        self,
        store: "ResultStore",
        run_name: Optional[str] = None,
        breaker: Optional[CircuitBreaker] = None,
        spill_path: Optional[Union[str, Path]] = None,
    ):
        self.store = store
        self.run_name = run_name
        self._campaign_runs: dict = {}
        store_path = getattr(store, "path", None)
        if spill_path is not None:
            self.spill_path: Optional[Path] = Path(spill_path)
        elif store_path is not None:
            self.spill_path = Path(f"{store_path}.sideline.jsonl")
        else:
            self.spill_path = None
        self.breaker = breaker if breaker is not None else get_breaker(
            f"store-sink:{store_path}"
        )
        self.spilled = 0
        self.spill_errors = 0

    def _run_for(self, campaign: str):
        name = self.run_name or campaign
        if name not in self._campaign_runs:
            self._campaign_runs[name] = self.store.ensure_run(name)
        return self._campaign_runs[name]

    # ----------------------------------------------------- breaker + spill

    def _protected(self, fn, spill_fn):
        """Run one store write through the breaker; spill on failure.

        Returns ``fn()``'s result, or None when the write was spilled
        (breaker open, or the write failed and tripped it further).
        """
        from repro.store.warehouse import StoreError

        if not self.breaker.allow():
            spill_fn()
            return None
        try:
            result = fn()
        except (StoreError, sqlite3.Error, OSError) as exc:
            self.breaker.record_failure(exc)
            spill_fn()
            return None
        self.breaker.record_success()
        return result

    def _spill(self, record: dict) -> None:
        if self.spill_path is None:
            return
        try:
            with open(self.spill_path, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            self.spill_errors += 1  # disk truly gone; counted, not fatal
        else:
            self.spilled += 1

    def _event(self, event: str, campaign: str, payload: dict) -> None:
        self._protected(
            lambda: self.store.record_event(
                event, campaign=campaign, payload=payload,
                run=self._run_for(campaign),
            ),
            lambda: self._spill(
                {
                    "kind": "event",
                    "event": event,
                    "campaign": campaign,
                    "run": self.run_name or campaign,
                    "payload": payload,
                }
            ),
        )

    # ------------------------------------------------------------- records

    def campaign_start(self, campaign: str, jobs: int, workers: int, mode: str) -> None:
        self._event(
            "campaign_start", campaign,
            {"jobs": jobs, "workers": workers, "mode": mode},
        )

    def job(self, campaign: str, record: JobRecord) -> None:
        self._event("job", campaign, record.row())

    def campaign_end(
        self, campaign: str, records: List[JobRecord], wall_s: float, cache: dict
    ) -> None:
        statuses: dict = {}
        for record in records:
            statuses[record.status] = statuses.get(record.status, 0) + 1
        self._event(
            "campaign_end", campaign,
            {"statuses": statuses, "wall_s": round(wall_s, 4), "cache": cache},
        )

    def trials(self, campaign: str, items) -> int:
        """Persist completed (key, value) payloads; returns newly stored.

        Payloads that cannot reach the warehouse spill losslessly to the
        sideline (dtype + shape + base64 bytes), ready for replay.
        """
        import numpy as np

        items = [(key, np.ascontiguousarray(np.asarray(v))) for key, v in items]
        if not items:
            return 0

        def spill_all():
            run = self.run_name or campaign
            for key, array in items:
                self._spill(
                    {
                        "kind": "trial",
                        "key": key,
                        "run": run,
                        "dtype": array.dtype.str,
                        "shape": list(array.shape),
                        "data": base64.b64encode(array.tobytes()).decode("ascii"),
                    }
                )

        stored = self._protected(
            lambda: self.store.put_trials(items, run=self._run_for(campaign)),
            spill_all,
        )
        return int(stored or 0)


class ProgressPrinter:
    """Minimal CLI progress renderer: one line per finished job.

    Each update is emitted as a **single** ``write()`` call (newline
    included) followed by a flush.  ``print()`` would issue separate
    writes for the text and the line ending, and with ``jobs>1`` (or a
    service running several campaigns) concurrent progress callbacks
    interleave those partial writes into garbled lines; one atomic write
    per update keeps every line intact regardless of how many threads
    share the stream.
    """

    def __init__(self, stream: Optional[IO] = None):
        self.stream = stream if stream is not None else sys.stderr

    def __call__(self, record: JobRecord, done: int, total: int) -> None:
        label = record.label or record.key or f"job {record.index}"
        note = f" ({record.error})" if record.error else ""
        self.stream.write(
            f"[{done}/{total}] {label}: {record.status} "
            f"{record.wall_s:.2f}s{note}\n"
        )
        self.stream.flush()


__all__ = [
    "JobRecord",
    "CampaignTelemetry",
    "RunManifest",
    "StoreSink",
    "ProgressPrinter",
    "STATUS_OK",
    "STATUS_CACHED",
    "STATUS_FAILED",
    "STATUS_TIMEOUT",
    "STATUS_CRASHED",
    "STATUS_QUARANTINED",
]
