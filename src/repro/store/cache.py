"""A :class:`ResultCache` whose persistent tier is the warehouse.

``StoreCache`` puts read-through/write-through access to a
:class:`ResultStore` under the harness's in-memory LRU: a campaign run
with ``--store`` both *reuses* every trial any previous run already
computed and *persists* every trial it computes, without any harness
code changing — the cache keys are the warehouse's content-addressed
trial identities already.

Only the executor calls :meth:`StoreCache.get` and :meth:`StoreCache.put`,
once per trial and in the parent process (pool workers hold no cache),
so a multi-worker campaign funnels its store writes through one
connection while stray concurrent writers are still safe thanks to the
store's WAL + retry discipline.
"""

from __future__ import annotations

import sqlite3
import warnings
from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.harness.cache import ResultCache
from repro.store.warehouse import ResultStore, StoreError


class StoreCache(ResultCache):
    """Two-tier cache: memory LRU -> results warehouse."""

    def __init__(self, store: Union[ResultStore, str, Path]):
        super().__init__()
        if isinstance(store, (str, Path)):
            from repro.store.sharded import open_store

            self._owns_store = True
            self.store = open_store(store)
        else:
            # A ResultStore or anything store-shaped (the sharded
            # facade routes trials transparently).
            self._owns_store = False
            self.store = store
        #: Counters for telemetry: how many lookups the warehouse served
        #: and how many payloads were persisted through this cache.
        self.store_hits = 0
        self.store_puts = 0
        #: Store operations that failed and were absorbed: the campaign
        #: degrades to the memory tier instead of dying mid-run.
        self.store_errors = 0

    def _degrade(self, op: str, exc: BaseException) -> None:
        self.store_errors += 1
        warnings.warn(
            f"repro.store: warehouse {op} failed, degrading to the "
            f"memory cache tier ({type(exc).__name__}: {exc})"
        )

    def get(self, key: str) -> Optional[np.ndarray]:
        value = super().get(key)
        if value is not None:
            return value
        try:
            stored = self.store.get_trial(key)
        except (StoreError, sqlite3.Error, OSError) as exc:
            self._degrade("read", exc)
            return None
        if stored is None:
            return None
        # Promote into the memory tier and convert the miss that
        # ``super().get`` counted into a hit: the campaign did not have
        # to simulate anything.
        self._remember(key, stored)
        self.misses -= 1
        self.hits += 1
        self.store_hits += 1
        return stored

    def put(self, key: str, value: np.ndarray) -> np.ndarray:
        value = super().put(key, value)
        try:
            if self.store.put_trial(key, value):
                self.store_puts += 1
        except (StoreError, sqlite3.Error, OSError) as exc:
            self._degrade("write", exc)
        return value

    def counters(self) -> dict:
        out = super().counters()
        out["store_hits"] = self.store_hits
        out["store_puts"] = self.store_puts
        out["store_errors"] = self.store_errors
        return out

    def close(self) -> None:
        if self._owns_store:
            self.store.close()


__all__ = ["StoreCache"]
