"""The fabric's durable leased work queue.

One ``fabric_tasks`` row per submitted campaign lives in the same SQLite
warehouse as the results it will produce, so queue state, the events
journal and the content-addressed trial payloads commit through one WAL
file with one retry discipline.  Lease semantics are at-least-once:

* :meth:`WorkQueue.lease` atomically claims the best available task
  (deficit-round-robin across tenants, then priority, then FIFO) and
  stamps it with a lease id, owner and expiry.
* :meth:`WorkQueue.heartbeat` extends the lease while the worker is
  alive; a worker that is SIGKILLed simply stops heartbeating and the
  lease expires, returning the task to ``pending`` for the next worker.
* :meth:`WorkQueue.complete` is idempotent — results are keyed by the
  same content-addressed trial identity everywhere, so a task finished
  twice (stale lease + fresh lease) dedupes to identical rows and the
  second completion is acknowledged as a duplicate, never an error.

The queue also keeps the durable worker registry (``fabric_workers``):
every lease and heartbeat stamps the calling worker's ``last_seen``, so
heartbeat *ages* — not process handles — show which workers are alive,
and the ``draining`` state is a durable drain directive the worker
observes on its next heartbeat or lease poll (finish the lease, then
exit).  Nothing reaps a dead worker's row: it stays ``active`` with a
growing heartbeat age, and its lease returns to ``pending`` through
ordinary expiry.

Every statement that touches ``fabric_tasks`` / ``fabric_tenants`` /
``fabric_workers`` lives in this module; the ``queue-sql-confinement``
lint rule keeps it that way so lease invariants can be audited in one
file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from repro.exec.telemetry import default_clock
from repro.store.warehouse import ResultStore

# Task states.  pending -> leased -> done|failed; cancelled can replace
# pending or leased.  A lease that expires moves leased -> pending.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL = (DONE, FAILED, CANCELLED)

# Worker registry states.  active -> draining -> exited; an exited worker
# whose name leases or heartbeats again (a new process) returns to active.
WORKER_ACTIVE = "active"
WORKER_DRAINING = "draining"
WORKER_EXITED = "exited"

#: Default number of executions (including lease expiries) before a task
#: is declared failed rather than re-queued.
DEFAULT_MAX_ATTEMPTS = 3


class QueueError(RuntimeError):
    """A queue operation violated lease or quota invariants."""


class QuotaExceeded(QueueError):
    """The tenant's ``max_pending`` quota rejected a submit."""


@dataclass(frozen=True)
class Task:
    """Snapshot of one ``fabric_tasks`` row."""

    campaign: str
    tenant: str
    spec: dict
    priority: int
    state: str
    attempts: int
    lease_id: Optional[str]
    lease_owner: Optional[str]
    lease_expires_at: Optional[float]
    cancel_requested: bool
    result: dict
    error: Optional[str]


@dataclass(frozen=True)
class Lease:
    """What a worker holds after a successful :meth:`WorkQueue.lease`."""

    campaign: str
    lease_id: str
    tenant: str
    spec: dict
    attempt: int
    expires_at: float


def _row_task(row) -> Task:
    return Task(
        campaign=row["campaign"],
        tenant=row["tenant"],
        spec=json.loads(row["spec"]),
        priority=int(row["priority"]),
        state=row["state"],
        attempts=int(row["attempts"]),
        lease_id=row["lease_id"],
        lease_owner=row["lease_owner"],
        lease_expires_at=row["lease_expires_at"],
        cancel_requested=bool(row["cancel_requested"]),
        result=json.loads(row["result"] or "{}"),
        error=row["error"],
    )


class WorkQueue:
    """Lease-based task queue on a :class:`ResultStore` file.

    Like the store itself, open one instance per thread/process; all
    writes go through the store's retried single-transaction seam, so
    coordinator and N workers can share one path safely.
    """

    def __init__(
        self,
        store: Union[ResultStore, str],
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] = default_clock,
    ):
        self._owns_store = not isinstance(store, ResultStore)
        self._store = ResultStore(store) if self._owns_store else store
        self.max_attempts = int(max_attempts)
        self._clock = clock

    def close(self) -> None:
        if self._owns_store:
            self._store.close()

    def __enter__(self) -> "WorkQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- tenants

    def ensure_tenant(
        self,
        name: str,
        weight: int = 1,
        max_pending: Optional[int] = None,
        max_active: Optional[int] = None,
    ) -> None:
        """Create or update a tenant row (weight drives DRR fairness)."""
        if weight < 1:
            raise QueueError(f"tenant weight must be >= 1, got {weight}")
        now = self._clock()

        def txn(conn):
            conn.execute(
                "INSERT INTO fabric_tenants (name, weight, max_pending,"
                " max_active, created_at) VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT(name) DO UPDATE SET weight = excluded.weight,"
                " max_pending = excluded.max_pending,"
                " max_active = excluded.max_active",
                (name, int(weight), max_pending, max_active, now),
            )

        self._store.write_transaction(txn)

    def _ensure_tenant_row(self, conn, name: str) -> None:
        conn.execute(
            "INSERT OR IGNORE INTO fabric_tenants (name, created_at)"
            " VALUES (?, ?)",
            (name, self._clock()),
        )

    # ------------------------------------------------------------- workers

    def _touch_worker(self, conn, name: str, now: float) -> str:
        """Upsert the worker's registry row and stamp ``last_seen``.

        Returns the worker's current state.  A worker whose row says
        ``exited`` and shows up again is a restarted process: it
        re-activates (fresh ``started_at``).  ``draining`` is sticky —
        only the worker's own deregister ends it — so a drain directive
        can never be lost to a concurrently arriving heartbeat.
        """
        conn.execute(
            "INSERT INTO fabric_workers (name, state, started_at, last_seen)"
            " VALUES (?, ?, ?, ?)"
            " ON CONFLICT(name) DO UPDATE SET last_seen = excluded.last_seen,"
            " state = CASE WHEN fabric_workers.state = ?"
            "   THEN ? ELSE fabric_workers.state END,"
            " started_at = CASE WHEN fabric_workers.state = ?"
            "   THEN excluded.started_at ELSE fabric_workers.started_at END",
            (
                name, WORKER_ACTIVE, now, now,
                WORKER_EXITED, WORKER_ACTIVE, WORKER_EXITED,
            ),
        )
        return conn.execute(
            "SELECT state FROM fabric_workers WHERE name = ?", (name,)
        ).fetchone()["state"]

    def deregister_worker(self, name: str) -> None:
        """Record a clean worker exit (keeps the row for fleet history)."""
        now = self._clock()
        self._store.write_transaction(
            lambda conn: conn.execute(
                "UPDATE fabric_workers SET state = ?, last_seen = ?"
                " WHERE name = ?",
                (WORKER_EXITED, now, name),
            )
        )

    def drain_worker(self, name: str) -> dict:
        """Set the durable drain directive for ``name``.

        The worker sees ``drain: true`` on its next heartbeat or lease
        poll, finishes its current lease, deregisters and exits.
        Draining a worker the registry has never seen creates the row,
        so a directive can be issued before the first heartbeat lands.
        """
        now = self._clock()

        def txn(conn):
            conn.execute(
                "INSERT INTO fabric_workers (name, state, started_at,"
                " last_seen) VALUES (?, ?, ?, ?)"
                " ON CONFLICT(name) DO UPDATE SET state = ?",
                (name, WORKER_DRAINING, now, now, WORKER_DRAINING),
            )

        self._store.write_transaction(txn)
        info = self.worker_info(name)
        assert info is not None
        return info

    def worker_info(self, name: str) -> Optional[dict]:
        workers = {w["name"]: w for w in self.workers(include_exited=True)}
        return workers.get(name)

    def workers(self, include_exited: bool = False) -> List[dict]:
        """The fleet registry with live heartbeat ages and lease counts."""
        now = self._clock()

        def txn(conn):
            sql = (
                "SELECT w.name, w.state, w.started_at,"
                " w.last_seen, w.leases_total,"
                " SUM(CASE WHEN k.state = ? THEN 1 ELSE 0 END) AS leases"
                " FROM fabric_workers w LEFT JOIN fabric_tasks k"
                " ON k.lease_owner = w.name GROUP BY w.name ORDER BY w.name"
            )
            out = []
            for row in conn.execute(sql, (LEASED,)):
                if row["state"] == WORKER_EXITED and not include_exited:
                    continue
                out.append(
                    {
                        "name": row["name"],
                        "state": row["state"],
                        "started_at": row["started_at"],
                        "last_seen": row["last_seen"],
                        "heartbeat_age_s": round(now - row["last_seen"], 3),
                        "leases": int(row["leases"] or 0),
                        "leases_total": int(row["leases_total"] or 0),
                    }
                )
            return out

        return self._store.read_transaction(txn)

    # ------------------------------------------------------------- enqueue

    def enqueue(
        self,
        campaign: str,
        spec: dict,
        tenant: str = "default",
        priority: int = 0,
    ) -> Task:
        """Durably add a campaign to the queue (idempotent by campaign id).

        Raises :class:`QuotaExceeded` when the tenant's ``max_pending``
        quota is full — the HTTP service turns that into a 429.
        """
        now = self._clock()
        payload = json.dumps(spec, sort_keys=True)

        def txn(conn):
            self._ensure_tenant_row(conn, tenant)
            row = conn.execute(
                "SELECT max_pending FROM fabric_tenants WHERE name = ?",
                (tenant,),
            ).fetchone()
            limit = row["max_pending"]
            exists = conn.execute(
                "SELECT campaign FROM fabric_tasks WHERE campaign = ?",
                (campaign,),
            ).fetchone()
            if exists is None and limit is not None:
                backlog = conn.execute(
                    "SELECT COUNT(*) AS n FROM fabric_tasks"
                    " WHERE tenant = ? AND state IN (?, ?)",
                    (tenant, PENDING, LEASED),
                ).fetchone()["n"]
                if backlog >= limit:
                    raise QuotaExceeded(
                        f"tenant {tenant!r} backlog {backlog} at quota "
                        f"max_pending={limit}"
                    )
            conn.execute(
                "INSERT OR IGNORE INTO fabric_tasks (campaign, tenant,"
                " spec, priority, state, created_at, updated_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (campaign, tenant, payload, int(priority), PENDING, now, now),
            )
            return conn.execute(
                "SELECT * FROM fabric_tasks WHERE campaign = ?", (campaign,)
            ).fetchone()

        return _row_task(self._store.write_transaction(txn))

    # --------------------------------------------------------------- lease

    def _sweep_expired(self, conn, now: float) -> List[str]:
        """Return expired leases to pending (or fail them past the attempt
        cap).  Called inside every lease/status transaction — workers poll
        continuously, so lazy sweeping converges without a timer thread."""
        rows = conn.execute(
            "SELECT campaign, attempts FROM fabric_tasks"
            " WHERE state = ? AND lease_expires_at IS NOT NULL"
            " AND lease_expires_at <= ?",
            (LEASED, now),
        ).fetchall()
        expired = []
        for row in rows:
            campaign = row["campaign"]
            expired.append(campaign)
            if int(row["attempts"]) >= self.max_attempts:
                conn.execute(
                    "UPDATE fabric_tasks SET state = ?, lease_id = NULL,"
                    " lease_owner = NULL, lease_expires_at = NULL,"
                    " error = ?, updated_at = ? WHERE campaign = ?",
                    (
                        FAILED,
                        f"lease expired {row['attempts']} times"
                        f" (max_attempts={self.max_attempts})",
                        now,
                        campaign,
                    ),
                )
            else:
                conn.execute(
                    "UPDATE fabric_tasks SET state = ?, lease_id = NULL,"
                    " lease_owner = NULL, lease_expires_at = NULL,"
                    " updated_at = ? WHERE campaign = ?",
                    (PENDING, now, campaign),
                )
        return expired

    def sweep(self) -> List[str]:
        """Explicitly sweep expired leases; returns affected campaigns."""
        now = self._clock()
        return self._store.write_transaction(
            lambda conn: self._sweep_expired(conn, now)
        )

    def _pick_tenant(self, conn) -> Optional[str]:
        """Deficit round-robin: pick the backlogged tenant to serve next.

        Every eligible tenant (pending work, under its ``max_active``
        lease quota) accrues ``weight`` credits per replenish round; the
        richest deficit wins and pays one credit per lease.  Weight-2
        tenants therefore drain twice as fast as weight-1 tenants under
        contention, and an idle tenant's deficit is reset so it cannot
        hoard credits while absent (classic DRR behaviour).
        """
        rows = conn.execute(
            "SELECT t.name, t.weight, t.deficit, t.max_active, t.rowid AS rid,"
            " SUM(CASE WHEN k.state = ? THEN 1 ELSE 0 END) AS backlog,"
            " SUM(CASE WHEN k.state = ? THEN 1 ELSE 0 END) AS active"
            " FROM fabric_tenants t LEFT JOIN fabric_tasks k"
            " ON k.tenant = t.name GROUP BY t.name ORDER BY t.rowid",
            (PENDING, LEASED),
        ).fetchall()
        eligible = []
        for row in rows:
            backlog = int(row["backlog"] or 0)
            active = int(row["active"] or 0)
            if backlog == 0:
                if row["deficit"]:
                    conn.execute(
                        "UPDATE fabric_tenants SET deficit = 0 WHERE name = ?",
                        (row["name"],),
                    )
                continue
            if row["max_active"] is not None and active >= row["max_active"]:
                continue
            eligible.append(
                {
                    "name": row["name"],
                    "weight": int(row["weight"]),
                    "deficit": float(row["deficit"]),
                    "rid": int(row["rid"]),
                }
            )
        if not eligible:
            return None
        while all(t["deficit"] < 1.0 for t in eligible):
            for t in eligible:
                t["deficit"] += t["weight"]
        winner = max(eligible, key=lambda t: (t["deficit"], -t["rid"]))
        for t in eligible:
            deficit = t["deficit"] - 1.0 if t is winner else t["deficit"]
            conn.execute(
                "UPDATE fabric_tenants SET deficit = ? WHERE name = ?",
                (deficit, t["name"]),
            )
        return winner["name"]

    def lease(
        self,
        owner: str,
        ttl_s: float = 30.0,
    ) -> Union[Lease, dict, None]:
        """Atomically claim the next task for ``owner``.

        Returns the :class:`Lease`, or ``None`` when the queue is idle,
        or the directive dict ``{"drain": True}`` when ``owner`` is
        under a drain directive — a draining worker gets no new work,
        only the instruction to finish up and exit.  The call also
        stamps the worker's registry row (liveness is heartbeat *age*,
        and an idle worker's polls count as heartbeats).
        """
        now = self._clock()

        def txn(conn):
            if self._touch_worker(conn, owner, now) == WORKER_DRAINING:
                return {"drain": True}
            self._sweep_expired(conn, now)
            tenant = self._pick_tenant(conn)
            if tenant is None:
                return None
            row = conn.execute(
                "SELECT * FROM fabric_tasks WHERE tenant = ? AND state = ?"
                " ORDER BY priority DESC, id ASC LIMIT 1",
                (tenant, PENDING),
            ).fetchone()
            if row is None:  # raced: backlog drained inside this txn
                return None
            # Unique per (task, attempt): attempts only ever increase, so
            # a stale lease id can never be minted twice.
            attempt = int(row["attempts"]) + 1
            lease_id = f"L{int(row['id']):06d}.{attempt}"
            conn.execute(
                "UPDATE fabric_tasks SET state = ?, attempts = ?,"
                " lease_id = ?, lease_owner = ?, lease_expires_at = ?,"
                " updated_at = ? WHERE id = ?",
                (LEASED, attempt, lease_id, owner, now + ttl_s, now, row["id"]),
            )
            conn.execute(
                "UPDATE fabric_workers SET leases_total = leases_total + 1"
                " WHERE name = ?",
                (owner,),
            )
            return Lease(
                campaign=row["campaign"],
                lease_id=lease_id,
                tenant=row["tenant"],
                spec=json.loads(row["spec"]),
                attempt=attempt,
                expires_at=now + ttl_s,
            )

        return self._store.write_transaction(txn)

    def heartbeat(
        self, campaign: str, lease_id: str, ttl_s: float = 30.0
    ) -> Dict[str, bool]:
        """Extend a live lease.  Returns ``{"ok", "cancel", "drain"}`` —
        ``ok`` is False when the lease was lost (expired and re-leased
        elsewhere), which tells the worker to abandon the campaign;
        ``drain`` is True when the worker is under a drain directive
        (finish this lease, then exit).

        The expiry sweep runs *first, inside this same transaction*: a
        heartbeat landing at or after the expiry instant observes its
        lease already returned to pending (lease_id cleared) and is
        rejected, so a late beat can neither extend a lease the sweep
        would have reclaimed nor resurrect one already re-leased — the
        two orderings of "sweep vs. heartbeat in the same window" are
        collapsed into one.
        """
        now = self._clock()

        def txn(conn):
            self._sweep_expired(conn, now)
            row = conn.execute(
                "SELECT state, lease_id, lease_owner, cancel_requested"
                " FROM fabric_tasks WHERE campaign = ?",
                (campaign,),
            ).fetchone()
            if row is None or row["state"] != LEASED or row["lease_id"] != lease_id:
                return {"ok": False, "cancel": True, "drain": False}
            drain = (
                self._touch_worker(conn, row["lease_owner"], now)
                == WORKER_DRAINING
            )
            conn.execute(
                "UPDATE fabric_tasks SET lease_expires_at = ?, updated_at = ?"
                " WHERE campaign = ?",
                (now + ttl_s, now, campaign),
            )
            return {
                "ok": True,
                "cancel": bool(row["cancel_requested"]),
                "drain": drain,
            }

        return self._store.write_transaction(txn)

    # ---------------------------------------------------------- completion

    def complete(
        self, campaign: str, lease_id: str, result: Optional[dict] = None
    ) -> str:
        """Mark a task done.  Returns ``"done"``, ``"duplicate"`` (already
        terminal — at-least-once delivery makes this normal, and the
        content-addressed store already deduped the rows), or
        ``"cancelled"``."""
        now = self._clock()
        payload = json.dumps(result or {}, sort_keys=True)

        def txn(conn):
            row = conn.execute(
                "SELECT state, lease_id FROM fabric_tasks WHERE campaign = ?",
                (campaign,),
            ).fetchone()
            if row is None:
                raise QueueError(f"unknown campaign {campaign!r}")
            if row["state"] == DONE:
                return "duplicate"
            if row["state"] == CANCELLED:
                return "cancelled"
            conn.execute(
                "UPDATE fabric_tasks SET state = ?, result = ?,"
                " lease_id = NULL, lease_owner = NULL,"
                " lease_expires_at = NULL, updated_at = ?"
                " WHERE campaign = ?",
                (DONE, payload, now, campaign),
            )
            return "done"

        return self._store.write_transaction(txn)

    def fail(
        self,
        campaign: str,
        lease_id: str,
        error: str,
        retryable: bool = True,
    ) -> str:
        """Report a failed execution.  Retryable failures under the
        attempt cap re-queue the task (``"retried"``); otherwise the task
        lands ``"failed"``.  Stale leases are acknowledged as
        ``"duplicate"`` without clobbering newer state."""
        now = self._clock()

        def txn(conn):
            row = conn.execute(
                "SELECT state, lease_id, attempts FROM fabric_tasks"
                " WHERE campaign = ?",
                (campaign,),
            ).fetchone()
            if row is None:
                raise QueueError(f"unknown campaign {campaign!r}")
            if row["state"] != LEASED or row["lease_id"] != lease_id:
                return "duplicate"
            if retryable and int(row["attempts"]) < self.max_attempts:
                conn.execute(
                    "UPDATE fabric_tasks SET state = ?, lease_id = NULL,"
                    " lease_owner = NULL, lease_expires_at = NULL,"
                    " error = ?, updated_at = ? WHERE campaign = ?",
                    (PENDING, error, now, campaign),
                )
                return "retried"
            conn.execute(
                "UPDATE fabric_tasks SET state = ?, lease_id = NULL,"
                " lease_owner = NULL, lease_expires_at = NULL,"
                " error = ?, updated_at = ? WHERE campaign = ?",
                (FAILED, error, now, campaign),
            )
            return "failed"

        return self._store.write_transaction(txn)

    def cancel(self, campaign: str) -> str:
        """Cancel a task: pending tasks flip to ``cancelled`` outright;
        leased tasks get ``cancel_requested`` set, which the worker sees
        on its next heartbeat and aborts at a trial boundary."""
        now = self._clock()

        def txn(conn):
            row = conn.execute(
                "SELECT state FROM fabric_tasks WHERE campaign = ?",
                (campaign,),
            ).fetchone()
            if row is None:
                raise QueueError(f"unknown campaign {campaign!r}")
            if row["state"] in TERMINAL:
                return row["state"]
            if row["state"] == LEASED:
                conn.execute(
                    "UPDATE fabric_tasks SET cancel_requested = 1,"
                    " updated_at = ? WHERE campaign = ?",
                    (now, campaign),
                )
                return "cancel-requested"
            conn.execute(
                "UPDATE fabric_tasks SET state = ?, lease_id = NULL,"
                " lease_owner = NULL, lease_expires_at = NULL,"
                " updated_at = ? WHERE campaign = ?",
                (CANCELLED, now, campaign),
            )
            return CANCELLED

        return self._store.write_transaction(txn)

    # ------------------------------------------------------------- queries

    def task(self, campaign: str) -> Optional[Task]:
        row = self._store.read_transaction(
            lambda conn: conn.execute(
                "SELECT * FROM fabric_tasks WHERE campaign = ?", (campaign,)
            ).fetchone()
        )
        return _row_task(row) if row is not None else None

    def depth(self) -> int:
        """Tasks waiting or running (pending + leased)."""
        return self._store.read_transaction(
            lambda conn: conn.execute(
                "SELECT COUNT(*) AS n FROM fabric_tasks WHERE state IN (?, ?)",
                (PENDING, LEASED),
            ).fetchone()["n"]
        )

    def status(self) -> dict:
        """Queue snapshot: per-state counts, per-tenant backlog and
        quota/deficit state, live leases with owner and expiry, and the
        fleet registry with per-worker heartbeat ages and lease counts."""
        now = self._clock()

        def txn(conn):
            self._sweep_expired(conn, now)
            states = {
                row["state"]: int(row["n"])
                for row in conn.execute(
                    "SELECT state, COUNT(*) AS n FROM fabric_tasks"
                    " GROUP BY state"
                )
            }
            tenants = {}
            for row in conn.execute(
                "SELECT t.name, t.weight, t.deficit, t.max_pending,"
                " t.max_active,"
                " SUM(CASE WHEN k.state = 'pending' THEN 1 ELSE 0 END)"
                "   AS pending,"
                " SUM(CASE WHEN k.state = 'leased' THEN 1 ELSE 0 END)"
                "   AS leased,"
                " SUM(CASE WHEN k.state = 'done' THEN 1 ELSE 0 END) AS done,"
                " SUM(CASE WHEN k.state = 'failed' THEN 1 ELSE 0 END)"
                "   AS failed"
                " FROM fabric_tenants t LEFT JOIN fabric_tasks k"
                " ON k.tenant = t.name GROUP BY t.name ORDER BY t.name"
            ):
                tenants[row["name"]] = {
                    "weight": int(row["weight"]),
                    "deficit": float(row["deficit"]),
                    "max_pending": row["max_pending"],
                    "max_active": row["max_active"],
                    "pending": int(row["pending"] or 0),
                    "leased": int(row["leased"] or 0),
                    "done": int(row["done"] or 0),
                    "failed": int(row["failed"] or 0),
                }
            leases = [
                {
                    "campaign": row["campaign"],
                    "tenant": row["tenant"],
                    "owner": row["lease_owner"],
                    "attempt": int(row["attempts"]),
                    "expires_in_s": round(row["lease_expires_at"] - now, 3),
                }
                for row in conn.execute(
                    "SELECT campaign, tenant, lease_owner, attempts,"
                    " lease_expires_at FROM fabric_tasks WHERE state = ?"
                    " ORDER BY id",
                    (LEASED,),
                )
            ]
            workers = []
            for row in conn.execute(
                "SELECT w.name, w.state, w.last_seen,"
                " w.leases_total,"
                " SUM(CASE WHEN k.state = ? THEN 1 ELSE 0 END) AS leases"
                " FROM fabric_workers w LEFT JOIN fabric_tasks k"
                " ON k.lease_owner = w.name WHERE w.state != ?"
                " GROUP BY w.name ORDER BY w.name",
                (LEASED, WORKER_EXITED),
            ):
                workers.append(
                    {
                        "name": row["name"],
                        "state": row["state"],
                        "heartbeat_age_s": round(now - row["last_seen"], 3),
                        "leases": int(row["leases"] or 0),
                        "leases_total": int(row["leases_total"] or 0),
                    }
                )
            return {
                "depth": states.get(PENDING, 0) + states.get(LEASED, 0),
                "states": states,
                "tenants": tenants,
                "leases": leases,
                "workers": workers,
            }

        return self._store.write_transaction(txn)


__all__ = [
    "WorkQueue",
    "Task",
    "Lease",
    "QueueError",
    "QuotaExceeded",
    "PENDING",
    "LEASED",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL",
    "WORKER_ACTIVE",
    "WORKER_DRAINING",
    "WORKER_EXITED",
    "DEFAULT_MAX_ATTEMPTS",
]
