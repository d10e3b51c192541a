"""Warehouse schema: DDL, versioning, and the migration ladder.

The store's on-disk layout is versioned through SQLite's ``user_version``
pragma.  :data:`MIGRATIONS` is a ladder of functions — entry ``i``
migrates a database at version ``i`` to version ``i + 1`` — and opening a
store applies every rung between the file's version and
:data:`STORE_SCHEMA_VERSION`.  A brand-new (or pre-warehouse, version-0)
file is bootstrapped by the first rung; a file written by a *newer*
repro is refused rather than silently misread.

Adding a table or column later means appending one migration function
and bumping :data:`STORE_SCHEMA_VERSION` — never editing an existing
rung, since shipped databases may sit at any intermediate version.

Tables
------

``runs``
    One row per recorded campaign (a heatmap, a matrix sweep, one kernel
    milestone of a regression run...).  Uniquely named.
``trials``
    Content-addressed trial payloads: the sampled point cloud of one
    2-flow trial keyed by the same ``trial_identity`` cache key the
    executor and the serial harness derive, so identical configurations
    dedupe across runs.  Arrays are stored as raw bytes plus dtype and
    shape, which round-trips bit-exactly.
``run_trials``
    Many-to-many link: which runs touched which trials.
``measurements`` / ``metrics``
    One ``measurements`` row per (run, subject, network condition), with
    its scalar metric set (conf, conf_t, delta_tput_mbps, ...) in
    ``metrics``.  Values are stored at full float64 precision — SQLite
    REALs are IEEE doubles, so queried metrics are bit-identical to the
    in-memory results that produced them.
``baselines``
    Named pointers to runs (e.g. ``release-1.2``), the anchors the diff
    engine compares new runs against.
``events``
    Executor telemetry journal: campaign_start / job / campaign_end
    records mirroring the JSONL manifest, but queryable.
``fabric_tasks`` / ``fabric_tenants`` (v2)
    The fabric's durable leased work queue: one ``fabric_tasks`` row per
    submitted campaign (spec JSON, tenant, priority, lease bookkeeping,
    attempt counter, result summary) and one ``fabric_tenants`` row per
    tenant (deficit-round-robin weight and deficit, quotas).  All SQL
    against these tables lives in :mod:`repro.fabric.queue` — the
    ``queue-sql-confinement`` lint rule enforces that.
``fabric_workers`` (v3)
    The worker registry: one row per worker process that has ever
    talked to the queue (lifecycle state, start/last-seen timestamps,
    lifetime lease counter).  ``repro fabric status`` shows heartbeat
    ages computed from ``last_seen``; nothing reaps a row by age.  The
    ``draining`` state is the durable drain directive workers observe on
    their next heartbeat.  The ``version`` column is unused: it was
    written for rolling upgrades that no longer exist, and v3 still
    creates it so every v3 file has the same schema.  Confined to
    :mod:`repro.fabric.queue` by the same lint rule as the queue tables.
``shard_links`` (v3)
    A run→trial link table without a foreign key into ``trials``.  It
    was created for a sharded warehouse layout that no longer exists;
    v3 still creates it, so every v3 file has the same schema, but
    nothing reads or writes it.
"""

from __future__ import annotations

import sqlite3
from typing import Callable, List

#: Version written to ``PRAGMA user_version`` by the newest code.
STORE_SCHEMA_VERSION = 3


class SchemaError(RuntimeError):
    """The database schema cannot be used (too new, or corrupt)."""


_BOOTSTRAP_DDL = """
CREATE TABLE IF NOT EXISTS runs (
    id          INTEGER PRIMARY KEY,
    name        TEXT NOT NULL UNIQUE,
    created_at  REAL NOT NULL,
    note        TEXT NOT NULL DEFAULT '',
    config      TEXT NOT NULL DEFAULT '{}'
);

CREATE TABLE IF NOT EXISTS trials (
    key         TEXT PRIMARY KEY,
    seed        INTEGER,
    label       TEXT NOT NULL DEFAULT '',
    dtype       TEXT NOT NULL,
    shape       TEXT NOT NULL,
    payload     BLOB NOT NULL,
    created_at  REAL NOT NULL
);

CREATE TABLE IF NOT EXISTS run_trials (
    run_id      INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    trial_key   TEXT NOT NULL REFERENCES trials(key) ON DELETE CASCADE,
    PRIMARY KEY (run_id, trial_key)
);

CREATE TABLE IF NOT EXISTS measurements (
    id              INTEGER PRIMARY KEY,
    run_id          INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    stack           TEXT NOT NULL,
    cca             TEXT NOT NULL,
    variant         TEXT NOT NULL DEFAULT 'default',
    bandwidth_mbps  REAL,
    rtt_ms          REAL,
    buffer_bdp      REAL,
    condition       TEXT NOT NULL DEFAULT '',
    UNIQUE (run_id, stack, cca, variant, bandwidth_mbps, rtt_ms, buffer_bdp)
);

CREATE TABLE IF NOT EXISTS metrics (
    measurement_id  INTEGER NOT NULL REFERENCES measurements(id)
                    ON DELETE CASCADE,
    name            TEXT NOT NULL,
    value           REAL,
    PRIMARY KEY (measurement_id, name)
);

CREATE TABLE IF NOT EXISTS baselines (
    name        TEXT PRIMARY KEY,
    run_id      INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    created_at  REAL NOT NULL
);

CREATE TABLE IF NOT EXISTS events (
    id          INTEGER PRIMARY KEY,
    run_id      INTEGER REFERENCES runs(id) ON DELETE CASCADE,
    campaign    TEXT NOT NULL DEFAULT '',
    event       TEXT NOT NULL,
    payload     TEXT NOT NULL DEFAULT '{}',
    time        REAL NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_measurements_subject
    ON measurements (stack, cca, variant);
CREATE INDEX IF NOT EXISTS idx_metrics_name ON metrics (name);
CREATE INDEX IF NOT EXISTS idx_events_campaign ON events (campaign);
"""


def _migrate_0_to_1(conn: sqlite3.Connection) -> None:
    """Bootstrap: create the full v1 layout in an empty/v0 database."""
    conn.executescript(_BOOTSTRAP_DDL)


_FABRIC_DDL = """
CREATE TABLE IF NOT EXISTS fabric_tasks (
    id               INTEGER PRIMARY KEY,
    campaign         TEXT NOT NULL UNIQUE,
    tenant           TEXT NOT NULL DEFAULT 'default',
    spec             TEXT NOT NULL,
    priority         INTEGER NOT NULL DEFAULT 0,
    state            TEXT NOT NULL DEFAULT 'pending',
    attempts         INTEGER NOT NULL DEFAULT 0,
    lease_id         TEXT,
    lease_owner      TEXT,
    lease_expires_at REAL,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    created_at       REAL NOT NULL,
    updated_at       REAL NOT NULL,
    result           TEXT NOT NULL DEFAULT '{}',
    error            TEXT
);

CREATE TABLE IF NOT EXISTS fabric_tenants (
    name        TEXT PRIMARY KEY,
    weight      INTEGER NOT NULL DEFAULT 1,
    deficit     REAL NOT NULL DEFAULT 0,
    max_pending INTEGER,
    max_active  INTEGER,
    created_at  REAL NOT NULL
);

CREATE INDEX IF NOT EXISTS idx_fabric_tasks_state
    ON fabric_tasks (state, tenant, priority);
"""


def _migrate_1_to_2(conn: sqlite3.Connection) -> None:
    """v2: the fabric's durable leased work queue + tenant table."""
    conn.executescript(_FABRIC_DDL)


_FLEET_DDL = """
CREATE TABLE IF NOT EXISTS fabric_workers (
    name         TEXT PRIMARY KEY,
    version      TEXT NOT NULL DEFAULT '',
    state        TEXT NOT NULL DEFAULT 'active',
    started_at   REAL NOT NULL,
    last_seen    REAL NOT NULL,
    leases_total INTEGER NOT NULL DEFAULT 0
);

CREATE INDEX IF NOT EXISTS idx_fabric_workers_state
    ON fabric_workers (state, last_seen);

CREATE TABLE IF NOT EXISTS shard_links (
    run_id      INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    trial_key   TEXT NOT NULL,
    PRIMARY KEY (run_id, trial_key)
);
"""


def _migrate_2_to_3(conn: sqlite3.Connection) -> None:
    """v3: the fleet's durable worker registry (liveness + drain) and
    the ``shard_links`` table.

    ``shard_links`` is ``run_trials`` minus the foreign key into
    ``trials``.  It served a sharded warehouse layout that has since
    been removed and is unused (always empty); it stays in the v3 DDL
    so every v3 file keeps one schema without a v4 migration.
    """
    conn.executescript(_FLEET_DDL)


#: ``MIGRATIONS[i]`` upgrades a version-``i`` database to ``i + 1``.
MIGRATIONS: List[Callable[[sqlite3.Connection], None]] = [
    _migrate_0_to_1,
    _migrate_1_to_2,
    _migrate_2_to_3,
]


def schema_version(conn: sqlite3.Connection) -> int:
    return int(conn.execute("PRAGMA user_version").fetchone()[0])


def migrate(conn: sqlite3.Connection) -> int:
    """Bring ``conn`` to :data:`STORE_SCHEMA_VERSION`; return the version
    the file was at before.  Refuses databases from a newer repro."""
    found = schema_version(conn)
    if found > STORE_SCHEMA_VERSION:
        raise SchemaError(
            f"store schema version {found} is newer than this code "
            f"supports ({STORE_SCHEMA_VERSION}); upgrade repro"
        )
    for version in range(found, STORE_SCHEMA_VERSION):
        with conn:
            MIGRATIONS[version](conn)
            conn.execute(f"PRAGMA user_version = {version + 1}")
    return found


__all__ = ["STORE_SCHEMA_VERSION", "MIGRATIONS", "SchemaError", "migrate", "schema_version"]
