"""`ResultStore`: the durable, multi-process-safe experiment warehouse.

One SQLite file (WAL mode) holds everything a longitudinal campaign
produces: content-addressed trial payloads, per-run scalar metrics,
named baselines and executor telemetry (see :mod:`repro.store.schema`
for the layout).  Every process opens its own :class:`ResultStore` on
the same path; WAL plus a busy timeout and a bounded retry loop make
concurrent writers from a ``repro.exec`` worker pool safe.

Fidelity guarantees:

* Trial arrays are stored as raw bytes + dtype + shape and reconstructed
  with ``np.frombuffer``, so ``get_trial`` returns a bit-identical copy
  of what ``put_trial`` was given.
* Metric values are SQLite REALs (IEEE float64), so a queried
  ``conf`` equals the in-memory ``result.conformance`` exactly.
* Trials are keyed by the same ``trial_identity`` cache keys the serial
  harness and ``repro.exec`` derive, so identical configurations dedupe
  across runs — a re-measured release stores only what changed.
"""

from __future__ import annotations

import json
import sqlite3
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.faults import inject
from repro.faults.retry import RetryPolicy
from repro.store.schema import STORE_SCHEMA_VERSION, SchemaError, migrate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.config import NetworkCondition
    from repro.harness.conformance import ConformanceMeasurement


class StoreError(RuntimeError):
    """A warehouse operation failed (unknown run, bad payload...)."""


#: Default locked-database retry behaviour: unlimited attempts bounded
#: by a total deadline (matching the connection's busy timeout), short
#: exponential backoff with deterministic jitter so a worker pool
#: hammering one file de-synchronises its commit retries.
_LOCK_RETRY = RetryPolicy(
    max_attempts=None,
    backoff_s=0.01,
    backoff_cap_s=0.1,
    deadline_s=30.0,
    jitter=0.25,
)

#: Metric names recorded for every conformance measurement, in the order
#: reports print them.
MEASUREMENT_METRICS = (
    "conf",
    "conf_t",
    "conf_old",
    "delta_tput_mbps",
    "delta_delay_ms",
    "k_test",
    "k_ref",
)


@dataclass(frozen=True)
class RunInfo:
    """One recorded campaign."""

    id: int
    name: str
    created_at: float
    note: str = ""
    config: Optional[dict] = None


@dataclass(frozen=True)
class MetricRow:
    """One scalar metric of one measurement, fully labelled."""

    run: str
    stack: str
    cca: str
    variant: str
    bandwidth_mbps: Optional[float]
    rtt_ms: Optional[float]
    buffer_bdp: Optional[float]
    condition: str
    metric: str
    value: Optional[float]

    def subject(self) -> str:
        suffix = "" if self.variant == "default" else f"+{self.variant}"
        return f"{self.stack}/{self.cca}{suffix}"


#: Header order for CSV/JSON exports of :class:`MetricRow` lists.
QUERY_HEADERS = [
    "run",
    "stack",
    "cca",
    "variant",
    "bandwidth_mbps",
    "rtt_ms",
    "buffer_bdp",
    "condition",
    "metric",
    "value",
]

RunRef = Union[int, str, RunInfo]


class _FaultyConnection:
    """Connection wrapper routing statements through the fault seam.

    Installed only while a fault plan is active — the hot path pays
    nothing otherwise.  Each ``execute``/``executemany`` first fires the
    ``store.execute`` injection point with the statement verb as
    context, so chaos plans raise *real* ``sqlite3.OperationalError`` /
    disk-full ``OSError`` from exactly where SQLite would, and the
    production retry/degradation paths are what gets exercised.
    """

    def __init__(self, conn: sqlite3.Connection):
        self._conn = conn

    @staticmethod
    def _verb(sql: str) -> str:
        stripped = sql.lstrip()
        return stripped.split(None, 1)[0].lower() if stripped else ""

    def execute(self, sql, *args):
        inject.fault_point("store.execute", sql=self._verb(sql))
        return self._conn.execute(sql, *args)

    def executemany(self, sql, *args):
        inject.fault_point("store.execute", sql=self._verb(sql))
        return self._conn.executemany(sql, *args)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc):
        return self._conn.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._conn, name)


class ResultStore:
    """SQLite-backed experiment warehouse (WAL mode, multi-process safe).

    Open one instance per process/thread; instances sharing a path see
    each other's committed writes immediately.  Usable as a context
    manager.
    """

    def __init__(
        self,
        path: Union[str, Path],
        timeout_s: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        strict_payloads: bool = False,
    ):
        self.path = Path(path)
        self.strict_payloads = bool(strict_payloads)
        if retry is None:
            retry = _LOCK_RETRY
        self._retry_policy = retry
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(str(self.path), timeout=timeout_s)
        conn.row_factory = sqlite3.Row
        # Belt and braces with the connect() timeout: busy_timeout makes
        # SQLite itself wait out page-level contention before raising, so
        # the RetryPolicy above only sees COMMIT-time lock races.
        conn.execute(f"PRAGMA busy_timeout={int(timeout_s * 1000)}")
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA foreign_keys=ON")
        if inject.active() is not None:
            self._conn = _FaultyConnection(conn)
        else:
            self._conn = conn
        self._retry(lambda: migrate(self._conn))

    # ------------------------------------------------------------ plumbing

    def close(self) -> None:
        try:
            self._conn.close()
        except sqlite3.Error:  # pragma: no cover - close is best-effort
            pass

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _locked(exc: sqlite3.OperationalError) -> bool:
        text = str(exc).lower()
        return "locked" in text or "busy" in text

    def _retry(self, fn):
        """Run ``fn`` under the store's :class:`RetryPolicy` while locked.

        SQLite's busy timeout covers most contention, but a writer can
        still lose the race for the WAL write lock at COMMIT time under a
        spawn pool hammering one file; retrying the whole transaction is
        the documented recovery.  Exhausting the policy's deadline
        surfaces as a typed :class:`StoreError` instead of a raw
        ``OperationalError`` spinning forever.
        """

        def locked(exc: BaseException) -> bool:
            return isinstance(exc, sqlite3.OperationalError) and self._locked(exc)

        try:
            return self._retry_policy.call(fn, retryable=locked)
        except sqlite3.OperationalError as exc:
            if self._locked(exc):
                raise StoreError(
                    f"database stayed locked past the retry deadline "
                    f"({self._retry_policy.deadline_s}s): {exc}"
                ) from exc
            raise

    def _write(self, fn):
        """One retried write transaction around ``fn(conn)``."""

        def attempt():
            with self._conn:
                return fn(self._conn)

        return self._retry(attempt)

    def write_transaction(self, fn):
        """Public seam for sibling subsystems that keep their own tables
        in the warehouse file (``repro.fabric.queue``): run ``fn(conn)``
        inside one retried write transaction, with the same locked-retry
        discipline and fault seams as the store's own writes."""
        return self._write(fn)

    def read_transaction(self, fn):
        """Run ``fn(conn)`` read-only under the store's retry policy."""
        return self._retry(lambda: fn(self._conn))

    # ---------------------------------------------------------------- runs

    def ensure_run(
        self,
        name: str,
        note: str = "",
        config: Optional[Mapping] = None,
    ) -> RunInfo:
        """Get-or-create the run called ``name``.

        Re-recording into an existing run upserts measurements in place,
        which is what longitudinal re-measurement wants: one run per
        (campaign, release), always holding the latest numbers.  A
        non-empty ``note`` fills an existing run's empty note.
        """

        def insert(conn):
            conn.execute(
                "INSERT OR IGNORE INTO runs (name, created_at, note, config) "
                "VALUES (?, ?, ?, ?)",
                (name, time.time(), note, json.dumps(dict(config or {}))),
            )
            if note:
                conn.execute(
                    "UPDATE runs SET note = ? WHERE name = ? AND note = ''",
                    (note, name),
                )

        self._write(insert)
        return self.run(name)

    def run(self, ref: RunRef) -> RunInfo:
        """Resolve a run by id, name, or pass a RunInfo through."""
        if isinstance(ref, RunInfo):
            return ref
        if isinstance(ref, int):
            row = self._conn.execute(
                "SELECT * FROM runs WHERE id = ?", (ref,)
            ).fetchone()
        else:
            row = self._conn.execute(
                "SELECT * FROM runs WHERE name = ?", (ref,)
            ).fetchone()
        if row is None:
            raise StoreError(f"unknown run: {ref!r}")
        return self._run_info(row)

    def has_run(self, name: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM runs WHERE name = ?", (name,)
        ).fetchone()
        return row is not None

    def runs(self) -> List[RunInfo]:
        rows = self._conn.execute("SELECT * FROM runs ORDER BY id").fetchall()
        return [self._run_info(row) for row in rows]

    @staticmethod
    def _run_info(row: sqlite3.Row) -> RunInfo:
        try:
            config = json.loads(row["config"])
        except (TypeError, ValueError):
            config = None
        return RunInfo(
            id=row["id"],
            name=row["name"],
            created_at=row["created_at"],
            note=row["note"],
            config=config,
        )

    # -------------------------------------------------------------- trials

    def put_trial(
        self,
        key: str,
        value: np.ndarray,
        seed: Optional[int] = None,
        label: str = "",
        run: Optional[RunRef] = None,
    ) -> bool:
        """Store one trial payload; returns True if the key was new.

        Payloads are content-addressed: a key already present is left
        untouched (the content hash guarantees it is the same array), so
        concurrent writers and repeated campaigns dedupe for free.
        """
        array = np.ascontiguousarray(np.asarray(value))
        run_id = self.run(run).id if run is not None else None

        def insert(conn) -> bool:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO trials "
                "(key, seed, label, dtype, shape, payload, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    key,
                    seed,
                    label,
                    array.dtype.str,
                    json.dumps(list(array.shape)),
                    sqlite3.Binary(array.tobytes()),
                    time.time(),
                ),
            )
            if run_id is not None:
                conn.execute(
                    "INSERT OR IGNORE INTO run_trials (run_id, trial_key) "
                    "VALUES (?, ?)",
                    (run_id, key),
                )
            return cursor.rowcount > 0

        return bool(self._write(insert))

    def put_trials(
        self,
        items: Iterable[Tuple[str, np.ndarray]],
        run: Optional[RunRef] = None,
    ) -> int:
        """Batch insert; one transaction, returns how many keys were new."""
        run_id = self.run(run).id if run is not None else None
        prepared = []
        for key, value in items:
            array = np.ascontiguousarray(np.asarray(value))
            prepared.append(
                (
                    key,
                    None,
                    "",
                    array.dtype.str,
                    json.dumps(list(array.shape)),
                    sqlite3.Binary(array.tobytes()),
                    time.time(),
                )
            )

        def insert(conn) -> int:
            before = conn.execute("SELECT COUNT(*) FROM trials").fetchone()[0]
            conn.executemany(
                "INSERT OR IGNORE INTO trials "
                "(key, seed, label, dtype, shape, payload, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                prepared,
            )
            if run_id is not None:
                conn.executemany(
                    "INSERT OR IGNORE INTO run_trials (run_id, trial_key) "
                    "VALUES (?, ?)",
                    [(run_id, row[0]) for row in prepared],
                )
            after = conn.execute("SELECT COUNT(*) FROM trials").fetchone()[0]
            return after - before

        return int(self._write(insert))

    def get_trial(
        self, key: str, strict: Optional[bool] = None
    ) -> Optional[np.ndarray]:
        """The stored payload for ``key``, bit-identical, or None.

        A payload that no longer decodes (torn write, bit rot) is
        *quarantined* by default: the bad row is deleted, a
        ``trial_quarantined`` event is journalled, and None is returned
        — so callers recompute and the content-addressed re-insert heals
        the store.  ``strict=True`` (or ``strict_payloads`` on the
        store) raises the typed :class:`StoreError` instead.
        """
        if strict is None:
            strict = self.strict_payloads
        row = self._conn.execute(
            "SELECT dtype, shape, payload FROM trials WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        try:
            shape = tuple(json.loads(row["shape"]))
            array = np.frombuffer(row["payload"], dtype=np.dtype(row["dtype"]))
            return array.reshape(shape).copy()
        except (ValueError, TypeError) as exc:
            if strict:
                raise StoreError(f"corrupt trial payload for key {key}: {exc}")
            self._quarantine_trial(key, exc)
            return None

    def _quarantine_trial(self, key: str, exc: BaseException) -> None:
        """Remove one undecodable trial row and journal why.

        Deletion (not tombstoning) is what enables self-healing: trial
        inserts are ``INSERT OR IGNORE``, so a recomputed payload can
        only land once the corrupt row is gone.
        """
        warnings.warn(
            f"repro.store: quarantined corrupt trial payload {key!r} ({exc})"
        )
        try:
            self._write(
                lambda conn: conn.execute(
                    "DELETE FROM trials WHERE key = ?", (key,)
                )
            )
            self.record_event(
                "trial_quarantined", payload={"key": key, "reason": str(exc)}
            )
        except (StoreError, sqlite3.Error):
            # Quarantine is best-effort: a read-only or locked-out store
            # still serves the healthy remainder.
            pass

    def has_trial(self, key: str) -> bool:
        row = self._conn.execute(
            "SELECT 1 FROM trials WHERE key = ?", (key,)
        ).fetchone()
        return row is not None

    def trial_keys(self, run: Optional[RunRef] = None) -> List[str]:
        if run is None:
            rows = self._conn.execute("SELECT key FROM trials ORDER BY key")
        else:
            rows = self._conn.execute(
                "SELECT trial_key AS key FROM run_trials WHERE run_id = ? "
                "ORDER BY trial_key",
                (self.run(run).id,),
            )
        return [row["key"] for row in rows.fetchall()]

    def link_trial(self, run: RunRef, key: str) -> None:
        run_id = self.run(run).id
        self._write(
            lambda conn: conn.execute(
                "INSERT OR IGNORE INTO run_trials (run_id, trial_key) "
                "VALUES (?, ?)",
                (run_id, key),
            )
        )

    # --------------------------------------------------- measurements/metrics

    def record_metrics(
        self,
        run: RunRef,
        stack: str,
        cca: str,
        metrics: Mapping[str, Optional[float]],
        variant: str = "default",
        condition: Optional["NetworkCondition"] = None,
    ) -> int:
        """Upsert one measurement row plus its scalar metrics.

        The measurement identity is (run, stack, cca, variant, physical
        condition); recording the same identity again replaces its
        metric values — the warehouse keeps the latest numbers per run.
        Returns the measurement id.
        """
        if condition is not None:
            bandwidth = float(condition.bandwidth_mbps)
            rtt = float(condition.rtt_ms)
            buffer_bdp = float(condition.buffer_bdp)
            describe = condition.describe()
        else:
            bandwidth = rtt = buffer_bdp = None
            describe = ""
        return self.record_metrics_raw(
            run,
            stack=stack,
            cca=cca,
            variant=variant,
            bandwidth_mbps=bandwidth,
            rtt_ms=rtt,
            buffer_bdp=buffer_bdp,
            condition=describe,
            metrics=metrics,
        )

    def record_metrics_raw(
        self,
        run: RunRef,
        stack: str,
        cca: str,
        metrics: Mapping[str, Optional[float]],
        variant: str = "default",
        bandwidth_mbps: Optional[float] = None,
        rtt_ms: Optional[float] = None,
        buffer_bdp: Optional[float] = None,
        condition: str = "",
    ) -> int:
        """Upsert a measurement from already-flattened condition values.

        The replay half of :meth:`record_metrics`: ingest paths (fabric
        result bundles, exports) carry the recorded scalars, not live
        ``NetworkCondition`` objects, and must round-trip them exactly.
        """
        run_id = self.run(run).id
        bandwidth = bandwidth_mbps
        rtt = rtt_ms
        describe = condition

        def upsert(conn) -> int:
            # Select-first rather than ON CONFLICT: SQLite's UNIQUE treats
            # NULLs as distinct, so condition-less measurements would
            # otherwise accumulate duplicate rows.
            found = conn.execute(
                "SELECT id FROM measurements WHERE run_id = ? AND stack = ? "
                "AND cca = ? AND variant = ? AND bandwidth_mbps IS ? "
                "AND rtt_ms IS ? AND buffer_bdp IS ?",
                (run_id, stack, cca, variant, bandwidth, rtt, buffer_bdp),
            ).fetchone()
            if found is None:
                cursor = conn.execute(
                    "INSERT INTO measurements "
                    "(run_id, stack, cca, variant, bandwidth_mbps, rtt_ms, "
                    " buffer_bdp, condition) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (run_id, stack, cca, variant, bandwidth, rtt, buffer_bdp, describe),
                )
                measurement_id = int(cursor.lastrowid)
            else:
                measurement_id = int(found["id"])
            conn.executemany(
                "INSERT INTO metrics (measurement_id, name, value) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT (measurement_id, name) DO UPDATE "
                "SET value = excluded.value",
                [
                    (measurement_id, name, None if value is None else float(value))
                    for name, value in metrics.items()
                ],
            )
            return measurement_id

        return int(self._write(upsert))

    def record_measurement(
        self, run: RunRef, measurement: "ConformanceMeasurement"
    ) -> int:
        """Record a harness conformance measurement at full precision."""
        result = measurement.result
        return self.record_metrics(
            run,
            stack=measurement.impl.stack,
            cca=measurement.impl.cca,
            variant=measurement.impl.variant,
            condition=measurement.condition,
            metrics={
                "conf": result.conformance,
                "conf_t": result.conformance_t,
                "conf_old": result.conformance_legacy,
                "delta_tput_mbps": result.delta_throughput_mbps,
                "delta_delay_ms": result.delta_delay_ms,
                "k_test": float(result.test_envelope.k),
                "k_ref": float(result.reference_envelope.k),
            },
        )

    # ---------------------------------------------------------------- query

    def query(
        self,
        run: Optional[RunRef] = None,
        stack: Optional[str] = None,
        cca: Optional[str] = None,
        variant: Optional[str] = None,
        condition: Optional[str] = None,
        metric: Optional[str] = None,
    ) -> List[MetricRow]:
        """Filtered metric rows, deterministically ordered.

        ``condition`` matches the recorded ``describe()`` string (e.g.
        ``20mbps-10ms-1bdp``).  All filters are conjunctive; None means
        "any".
        """
        sql = (
            "SELECT runs.name AS run, m.stack, m.cca, m.variant, "
            "m.bandwidth_mbps, m.rtt_ms, m.buffer_bdp, m.condition, "
            "metrics.name AS metric, metrics.value "
            "FROM metrics "
            "JOIN measurements m ON m.id = metrics.measurement_id "
            "JOIN runs ON runs.id = m.run_id"
        )
        clauses, params = [], []
        if run is not None:
            clauses.append("m.run_id = ?")
            params.append(self.run(run).id)
        for column, value in (
            ("m.stack", stack),
            ("m.cca", cca),
            ("m.variant", variant),
            ("m.condition", condition),
            ("metrics.name", metric),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += (
            " ORDER BY runs.name, m.stack, m.cca, m.variant, "
            "m.bandwidth_mbps, m.rtt_ms, m.buffer_bdp, metrics.name"
        )
        return [
            MetricRow(
                run=row["run"],
                stack=row["stack"],
                cca=row["cca"],
                variant=row["variant"],
                bandwidth_mbps=row["bandwidth_mbps"],
                rtt_ms=row["rtt_ms"],
                buffer_bdp=row["buffer_bdp"],
                condition=row["condition"],
                metric=row["metric"],
                value=row["value"],
            )
            for row in self._conn.execute(sql, params).fetchall()
        ]

    def metric_table(
        self, run: RunRef, metric: str = "conf"
    ) -> Dict[Tuple[str, str, str, str], float]:
        """One run's values of ``metric``, keyed by
        (stack, cca, variant, condition)."""
        return {
            (row.stack, row.cca, row.variant, row.condition): row.value
            for row in self.query(run=run, metric=metric)
            if row.value is not None
        }

    @staticmethod
    def rows_as_lists(rows: Sequence[MetricRow]) -> List[List]:
        return [
            [
                r.run, r.stack, r.cca, r.variant, r.bandwidth_mbps,
                r.rtt_ms, r.buffer_bdp, r.condition, r.metric, r.value,
            ]
            for r in rows
        ]

    @staticmethod
    def export_csv(rows: Sequence[MetricRow]) -> str:
        from repro.harness.reporting import to_csv

        return to_csv(QUERY_HEADERS, ResultStore.rows_as_lists(rows))

    @staticmethod
    def export_json(rows: Sequence[MetricRow]) -> str:
        return json.dumps(
            [dict(zip(QUERY_HEADERS, row)) for row in ResultStore.rows_as_lists(rows)],
            indent=2,
            sort_keys=True,
        )

    # ------------------------------------------------------------- baselines

    def set_baseline(self, name: str, run: RunRef) -> None:
        """Point the named baseline at ``run`` (create or move)."""
        run_id = self.run(run).id
        self._write(
            lambda conn: conn.execute(
                "INSERT INTO baselines (name, run_id, created_at) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT (name) DO UPDATE SET run_id = excluded.run_id, "
                "created_at = excluded.created_at",
                (name, run_id, time.time()),
            )
        )

    def baseline_run(self, name: str) -> Optional[RunInfo]:
        row = self._conn.execute(
            "SELECT run_id FROM baselines WHERE name = ?", (name,)
        ).fetchone()
        return None if row is None else self.run(int(row["run_id"]))

    def baselines(self) -> Dict[str, str]:
        """baseline name -> run name."""
        rows = self._conn.execute(
            "SELECT baselines.name AS name, runs.name AS run FROM baselines "
            "JOIN runs ON runs.id = baselines.run_id ORDER BY baselines.name"
        ).fetchall()
        return {row["name"]: row["run"] for row in rows}

    # ---------------------------------------------------------------- events

    def record_event(
        self,
        event: str,
        campaign: str = "",
        payload: Optional[Mapping] = None,
        run: Optional[RunRef] = None,
    ) -> None:
        run_id = self.run(run).id if run is not None else None
        self._write(
            lambda conn: conn.execute(
                "INSERT INTO events (run_id, campaign, event, payload, time) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    run_id,
                    campaign,
                    event,
                    json.dumps(dict(payload or {}), sort_keys=True, default=str),
                    time.time(),
                ),
            )
        )

    def events(self, campaign: Optional[str] = None) -> List[dict]:
        sql = "SELECT campaign, event, payload, time FROM events"
        params: Tuple = ()
        if campaign is not None:
            sql += " WHERE campaign = ?"
            params = (campaign,)
        sql += " ORDER BY id"
        out = []
        for row in self._conn.execute(sql, params).fetchall():
            try:
                payload = json.loads(row["payload"])
            except (TypeError, ValueError):
                payload = {}
            out.append(
                {
                    "campaign": row["campaign"],
                    "event": row["event"],
                    "time": row["time"],
                    **payload,
                }
            )
        return out

    # ------------------------------------------------------------------- gc

    def gc(self, dry_run: bool = False) -> Dict[str, int]:
        """Purge trial payloads no run links to, then vacuum the file.

        Orphaned trials accumulate when campaigns run without a ``run``
        grouping (e.g. bare ``Executor`` sinks) or after runs are
        deleted.  ``dry_run=True`` only reports what *would* go.  Returns
        a report dict: total/unlinked trial counts, bytes held by the
        unlinked payloads, how many rows were purged, and the database
        size before/after (vacuuming reclaims the freed pages).
        """
        size_before = self.path.stat().st_size if self.path.exists() else 0
        row = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) FROM trials "
            "WHERE key NOT IN (SELECT trial_key FROM run_trials)"
        ).fetchone()
        unlinked, unlinked_bytes = int(row[0]), int(row[1])
        total = int(self._conn.execute("SELECT COUNT(*) FROM trials").fetchone()[0])
        purged = 0
        if not dry_run and unlinked:
            purged = int(
                self._write(
                    lambda conn: conn.execute(
                        "DELETE FROM trials WHERE key NOT IN "
                        "(SELECT trial_key FROM run_trials)"
                    ).rowcount
                )
            )
        if not dry_run:
            # VACUUM must run outside a transaction; _retry covers a
            # concurrent writer holding the lock.
            self._retry(lambda: self._conn.execute("VACUUM"))
        size_after = self.path.stat().st_size if self.path.exists() else 0
        return {
            "trials_total": total,
            "unlinked": unlinked,
            "unlinked_bytes": unlinked_bytes,
            "purged": purged,
            "size_before": size_before,
            "size_after": size_after,
            "dry_run": int(dry_run),
        }

    # --------------------------------------------------------------- summary

    def counts(self) -> Dict[str, int]:
        """Row counts per table, for status lines and tests."""
        out = {}
        for table in ("runs", "trials", "run_trials", "measurements", "metrics", "baselines", "events"):
            out[table] = int(
                self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            )
        out["schema_version"] = STORE_SCHEMA_VERSION
        return out

    def integrity_ok(self) -> bool:
        row = self._conn.execute("PRAGMA integrity_check").fetchone()
        return row is not None and row[0] == "ok"


__all__ = [
    "ResultStore",
    "RunInfo",
    "MetricRow",
    "StoreError",
    "SchemaError",
    "QUERY_HEADERS",
    "MEASUREMENT_METRICS",
]
