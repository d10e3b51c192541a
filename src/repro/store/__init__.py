"""repro.store — the durable experiment-results warehouse.

The paper's workflow is longitudinal: every QUIC stack is re-measured
against every kernel milestone, release after release (§6).  That needs
results stored once and queried many times, not recomputed.  This
package provides:

* :class:`ResultStore` (``repro.store.warehouse``) — a SQLite-backed
  (WAL-mode, multi-process-safe) warehouse with content-addressed trial
  payloads, per-run metric tables, named baselines and an executor
  telemetry journal, behind a schema-versioned migration ladder
  (``repro.store.schema``).
* :class:`StoreCache` (``repro.store.cache``) — a drop-in
  :class:`~repro.harness.cache.ResultCache` that puts the warehouse
  under the in-memory LRU as the one persistent tier, so campaigns
  transparently reuse and persist trials across runs.
* Ingestion (``repro.store.ingest``) — JSONL run manifests, live
  harness results, and sideline spill files written while the store was
  unreachable.
* Diffing (``repro.store.diff``) — run-vs-run and run-vs-baseline
  comparison flagging metric moves and conformance-verdict flips.

Quick start::

    from repro.store import ResultStore, diff_runs

    store = ResultStore("results.db")
    rows = store.query(stack="quiche", metric="conf")
    print(ResultStore.export_csv(rows))
    diff = diff_runs(store, "release-1.1", "release-1.2")
    for flip in diff.flips:
        print("verdict flipped:", flip.label())
"""

from repro.store.cache import StoreCache
from repro.store.diff import (
    DEFAULT_VERDICT_THRESHOLD,
    MetricDelta,
    RunDiff,
    VerdictFlip,
    diff_against_baseline,
    diff_runs,
)
from repro.store.ingest import (
    IngestReport,
    ingest_manifest,
    ingest_measurements,
    ingest_sideline,
)
from repro.store.schema import STORE_SCHEMA_VERSION, SchemaError
from repro.store.warehouse import (
    MEASUREMENT_METRICS,
    MetricRow,
    QUERY_HEADERS,
    ResultStore,
    RunInfo,
    StoreError,
)

__all__ = [
    "ResultStore",
    "RunInfo",
    "MetricRow",
    "StoreError",
    "SchemaError",
    "StoreCache",
    "QUERY_HEADERS",
    "MEASUREMENT_METRICS",
    "STORE_SCHEMA_VERSION",
    "IngestReport",
    "ingest_manifest",
    "ingest_measurements",
    "ingest_sideline",
    "RunDiff",
    "MetricDelta",
    "VerdictFlip",
    "diff_runs",
    "diff_against_baseline",
    "DEFAULT_VERDICT_THRESHOLD",
]
