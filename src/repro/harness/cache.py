"""In-memory caching of sampled point clouds.

A full paper-scale sweep re-runs the same (stack, CCA, network, seed)
simulation many times — most obviously the kernel-vs-kernel reference
runs shared by every conformance measurement.  The cache keeps the
*sampled PE points* (the only thing downstream analysis needs) in a
bounded in-memory LRU, so full-matrix campaigns cannot grow memory
without bound; hit/miss/eviction counters feed the executor's telemetry.

Keys are a content hash of every parameter that affects the result plus
a schema-version salt; bump :data:`CACHE_SCHEMA_VERSION` whenever
simulator or sampling semantics change.  The same keys are the results
warehouse's trial identities, so reuse across processes and runs is
:class:`repro.store.StoreCache`'s job: the warehouse sits under this
memory tier as the one persistent tier.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Callable, Optional

import numpy as np

#: Bump to invalidate stored trials after behavioural changes.
CACHE_SCHEMA_VERSION = 6

#: Default entry cap: a full 22-impl x 16-condition campaign at the paper
#: protocol is ~2k distinct trials, so 4096 keeps every working set of
#: interest while bounding degenerate sweeps.
DEFAULT_MAX_ENTRIES = 4096


def cache_key(**params) -> str:
    """Stable content hash of keyword parameters."""
    payload = json.dumps(
        {"schema": CACHE_SCHEMA_VERSION, **params},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


class ResultCache:
    """Bounded in-memory LRU of numpy arrays."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        #: LRU entry cap; ``0`` or negative = unbounded.
        self.max_entries = max_entries
        self._memory: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[np.ndarray]:
        """Look ``key`` up; counts one hit or miss."""
        value = self._memory.get(key)
        if value is None:
            self.misses += 1
            return None
        self._memory.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value: np.ndarray) -> np.ndarray:
        """Insert a computed value."""
        value = np.asarray(value)
        self._remember(key, value)
        return value

    def get_or_compute(
        self, key: str, compute: Callable[[], np.ndarray]
    ) -> np.ndarray:
        value = self.get(key)
        if value is not None:
            return value
        return self.put(key, compute())

    def _remember(self, key: str, value: np.ndarray) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        if self.max_entries > 0:
            while len(self._memory) > self.max_entries:
                self._memory.popitem(last=False)
                self.evictions += 1

    def counters(self) -> dict:
        """Snapshot of the cache counters (for run telemetry)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._memory),
        }


#: Process-wide default cache.
DEFAULT_CACHE = ResultCache()
