"""Ingestion paths into the warehouse.

Three sources cover everything the repo produces today:

* :func:`ingest_manifest` — the append-only JSONL run manifests that
  ``repro.exec`` writes (PR 1).  Each ``campaign_start``/``job``/
  ``campaign_end`` line becomes a queryable ``events`` row, grouped
  under one store run per campaign occurrence.  Truncated final lines
  (a crashed campaign) are skipped, not fatal — the readable prefix is
  ingested.
* :func:`ingest_measurements` — live harness results
  (:class:`~repro.harness.conformance.ConformanceMeasurement` objects or
  a :class:`~repro.harness.matrix.MatrixResult`), recorded at full
  precision.
* :func:`ingest_sideline` — the JSONL spill file the executor's store
  sink writes while its circuit breaker is open (see
  :class:`repro.exec.telemetry.StoreSink`): events and base64 trial
  payloads recorded during degraded operation are replayed into the
  warehouse, bit-identical, once it is healthy again.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

import numpy as np

from repro.store.warehouse import ResultStore, RunRef


@dataclass
class IngestReport:
    """What one ingestion pass added (counters only, no payloads)."""

    runs: int = 0
    events: int = 0
    trials: int = 0
    trials_deduped: int = 0
    measurements: int = 0
    skipped_lines: int = 0

    def summary(self) -> str:
        parts = []
        if self.runs:
            parts.append(f"{self.runs} runs")
        if self.events:
            parts.append(f"{self.events} events")
        if self.trials or self.trials_deduped:
            parts.append(
                f"{self.trials} trials (+{self.trials_deduped} already present)"
            )
        if self.measurements:
            parts.append(f"{self.measurements} measurements")
        if self.skipped_lines:
            parts.append(f"{self.skipped_lines} unreadable lines skipped")
        return "ingested: " + (", ".join(parts) if parts else "nothing")


def _unique_run_name(store: ResultStore, base: str) -> str:
    if not store.has_run(base):
        return base
    n = 2
    while store.has_run(f"{base}#{n}"):
        n += 1
    return f"{base}#{n}"


def ingest_manifest(
    store: ResultStore,
    path: Union[str, Path],
    run_prefix: Optional[str] = None,
) -> IngestReport:
    """Load a ``repro.exec`` JSONL manifest into the events journal.

    One store run is created per ``campaign_start`` occurrence, named
    ``<prefix>:<campaign>`` (prefix defaults to the manifest file stem);
    repeated campaigns get ``#2``, ``#3``... suffixes so re-ingesting a
    growing manifest never collides.  Lines that fail to parse — e.g.
    the torn final record of a crashed writer — are counted and skipped.
    """
    path = Path(path)
    prefix = run_prefix if run_prefix is not None else path.stem
    report = IngestReport()
    current_run = None
    with open(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                report.skipped_lines += 1
                continue
            event = record.get("event", "")
            campaign = record.get("campaign", "")
            if event == "campaign_start":
                name = _unique_run_name(store, f"{prefix}:{campaign or 'campaign'}")
                current_run = store.ensure_run(
                    name, note=f"ingested from {path.name}"
                )
                report.runs += 1
            payload = {
                k: v for k, v in record.items() if k not in ("event", "campaign")
            }
            store.record_event(
                event or "unknown", campaign=campaign, payload=payload,
                run=current_run,
            )
            report.events += 1
            if event == "campaign_end":
                current_run = None
    return report


def ingest_sideline(
    store: ResultStore,
    path: Union[str, Path],
) -> IngestReport:
    """Replay a :class:`StoreSink` sideline spill file into the store.

    Each line is either an event record or a base64-encoded trial
    payload captured while the store was unreachable.  Trials are
    content-addressed, so replaying a sideline over a store that has
    since recovered (or replaying it twice) dedupes instead of
    duplicating.  Unreadable lines are counted and skipped.
    """
    path = Path(path)
    report = IngestReport()
    with open(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                kind = record["kind"]
                if kind == "trial":
                    data = base64.b64decode(record["data"])
                    value = np.frombuffer(
                        data, dtype=np.dtype(record["dtype"])
                    ).reshape(tuple(record["shape"]))
                elif kind != "event":
                    raise ValueError(f"unknown sideline record kind {kind!r}")
            except (KeyError, ValueError, TypeError):
                report.skipped_lines += 1
                continue
            if kind == "event":
                run = record.get("run")
                if run and not store.has_run(run):
                    store.ensure_run(run, note=f"replayed from {path.name}")
                    report.runs += 1
                store.record_event(
                    record.get("event", "unknown"),
                    campaign=record.get("campaign", ""),
                    payload=record.get("payload") or {},
                    run=run or None,
                )
                report.events += 1
            else:
                run = record.get("run")
                if run and not store.has_run(run):
                    store.ensure_run(run, note=f"replayed from {path.name}")
                    report.runs += 1
                if store.put_trial(record["key"], value, run=run or None):
                    report.trials += 1
                else:
                    report.trials_deduped += 1
    return report


def ingest_measurements(
    store: ResultStore,
    run: RunRef,
    measurements: Iterable,
) -> IngestReport:
    """Record live harness results under ``run``.

    Accepts any iterable of ``ConformanceMeasurement`` objects — or a
    ``MatrixResult``, whose ``measurements`` list is used directly.
    """
    items = getattr(measurements, "measurements", measurements)
    report = IngestReport()
    run_info = store.ensure_run(run) if isinstance(run, str) else store.run(run)
    for measurement in items:
        store.record_measurement(run_info, measurement)
        report.measurements += 1
    return report


__all__ = [
    "IngestReport",
    "ingest_manifest",
    "ingest_measurements",
    "ingest_sideline",
]
