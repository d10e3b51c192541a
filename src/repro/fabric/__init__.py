"""repro.fabric — the distributed campaign fabric.

Layers (each importable on its own):

* :mod:`repro.fabric.queue` — durable leased work queue in the
  warehouse (at-least-once leases, heartbeats, deficit round-robin
  tenant scheduling, idempotent completion).
* :mod:`repro.fabric.wire` — content-addressed result bundles for
  remote workers without a shared filesystem.
* :mod:`repro.fabric.coordinator` — the service scheduler dispatching
  into the queue instead of in-process threads.
* :mod:`repro.fabric.worker` — the lease → execute → report agent, and
  :func:`~repro.fabric.worker.worker_threads` for running N of them
  in-process.

The coordinator is served over HTTP by the campaign service's
:class:`~repro.service.server.ServiceApp` (``repro fabric serve``).

Exports resolve lazily: the coordinator imports the service layer and
the service router imports the queue, so eager re-exports here would
create an import cycle.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "WorkQueue": "repro.fabric.queue",
    "Task": "repro.fabric.queue",
    "Lease": "repro.fabric.queue",
    "QueueError": "repro.fabric.queue",
    "QuotaExceeded": "repro.fabric.queue",
    "DEFAULT_MAX_ATTEMPTS": "repro.fabric.queue",
    "export_bundle": "repro.fabric.wire",
    "ingest_bundle": "repro.fabric.wire",
    "encode_bundle": "repro.fabric.wire",
    "decode_bundle": "repro.fabric.wire",
    "Coordinator": "repro.fabric.coordinator",
    "DEFAULT_LEASE_TTL_S": "repro.fabric.coordinator",
    "FabricWorker": "repro.fabric.worker",
    "LocalTransport": "repro.fabric.worker",
    "HttpTransport": "repro.fabric.worker",
    "lease_to_wire": "repro.fabric.worker",
    "worker_threads": "repro.fabric.worker",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro.fabric' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
