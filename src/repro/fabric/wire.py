"""Result-bundle wire format for remote fabric workers.

A worker without filesystem access to the coordinator's warehouse runs
its campaign against a local scratch store, then ships everything the
campaign produced — runs, content-addressed trial payloads, measurement
rows — as one JSON bundle on the ``complete`` call.  The coordinator
replays the bundle into the shared warehouse.

Fidelity is the point: trial arrays travel as base64 raw bytes plus
dtype and shape (the same encoding the sideline spill files use), and
metric values as IEEE float64, so an ingested bundle is byte-identical
to having run the campaign against the shared store directly.  Trials
stay keyed by their content-addressed identity, so replaying a bundle
twice — or alongside another worker that computed the same trial —
dedupes instead of duplicating.
"""

from __future__ import annotations

import base64
import json
from typing import Dict, Iterable, List

import numpy as np

from repro.store.warehouse import ResultStore

#: Bundle format version, for forward compatibility on the wire.
BUNDLE_VERSION = 1


def _encode_trial(value: np.ndarray) -> dict:
    array = np.ascontiguousarray(value)
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def _run_measurements(store: ResultStore, info) -> List[dict]:
    grouped: Dict[tuple, dict] = {}
    for row in store.query(run=info):
        ident = (
            row.stack,
            row.cca,
            row.variant,
            row.bandwidth_mbps,
            row.rtt_ms,
            row.buffer_bdp,
            row.condition,
        )
        slot = grouped.setdefault(
            ident,
            {
                "stack": row.stack,
                "cca": row.cca,
                "variant": row.variant,
                "bandwidth_mbps": row.bandwidth_mbps,
                "rtt_ms": row.rtt_ms,
                "buffer_bdp": row.buffer_bdp,
                "condition": row.condition,
                "metrics": {},
            },
        )
        slot["metrics"][row.metric] = row.value
    return list(grouped.values())


def export_bundle(store: ResultStore, runs: Iterable[str]) -> dict:
    """Package the named runs (trials + measurements) from ``store``."""
    run_records: List[dict] = []
    trials: Dict[str, dict] = {}
    for name in runs:
        info = store.run(name)
        keys = store.trial_keys(info)
        for key in keys:
            if key in trials:
                continue
            value = store.get_trial(key, strict=True)
            if value is None:
                continue
            trials[key] = _encode_trial(value)
        run_records.append(
            {
                "name": info.name,
                "note": info.note,
                "config": info.config or {},
                "trial_keys": keys,
                "measurements": _run_measurements(store, info),
            }
        )
    return {
        "version": BUNDLE_VERSION,
        "runs": run_records,
        "trials": trials,
    }


def ingest_bundle(store: ResultStore, bundle: dict) -> Dict[str, int]:
    """Replay a bundle into ``store``; returns counters.

    Idempotent: trials are ``INSERT OR IGNORE`` by content-addressed
    key, measurements upsert by identity — a duplicate completion from a
    stale lease lands on rows that already hold identical values.
    """
    version = int(bundle.get("version", 0))
    if version != BUNDLE_VERSION:
        raise ValueError(
            f"unsupported bundle version {version} (expected {BUNDLE_VERSION})"
        )
    counters = {"runs": 0, "trials": 0, "trials_deduped": 0, "measurements": 0}
    payloads: Dict[str, np.ndarray] = {}
    for key, record in bundle.get("trials", {}).items():
        data = base64.b64decode(record["data"])
        payloads[key] = np.frombuffer(
            data, dtype=np.dtype(record["dtype"])
        ).reshape(tuple(record["shape"]))
    for record in bundle.get("runs", []):
        run = store.ensure_run(
            record["name"],
            note=record.get("note", ""),
            config=record.get("config") or {},
        )
        counters["runs"] += 1
        for key in record.get("trial_keys", []):
            value = payloads.get(key)
            if value is None:
                continue
            if store.put_trial(key, value, run=run):
                counters["trials"] += 1
            else:
                counters["trials_deduped"] += 1
                store.link_trial(run, key)
        for m in record.get("measurements", []):
            store.record_metrics_raw(
                run,
                stack=m["stack"],
                cca=m["cca"],
                variant=m.get("variant", "default"),
                bandwidth_mbps=m.get("bandwidth_mbps"),
                rtt_ms=m.get("rtt_ms"),
                buffer_bdp=m.get("buffer_bdp"),
                condition=m.get("condition", ""),
                metrics=m.get("metrics", {}),
            )
            counters["measurements"] += 1
    return counters


def encode_bundle(bundle: dict) -> str:
    """Canonical JSON text for HTTP transport."""
    return json.dumps(bundle, sort_keys=True, separators=(",", ":"))


def decode_bundle(text: str) -> dict:
    return json.loads(text)


__all__ = [
    "BUNDLE_VERSION",
    "export_bundle",
    "ingest_bundle",
    "encode_bundle",
    "decode_bundle",
]
