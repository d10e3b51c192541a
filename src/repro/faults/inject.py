"""The fault-injection seam: ``fault_point`` / ``fault_value``.

Production code calls :func:`fault_point` (raise/act sites) and
:func:`fault_value` (transform sites: journal lines, clock reads) at the
places a deterministic fault may strike.  With no plan active — the
normal case — both are a single ``None`` check and return immediately;
the exec-parallel benchmark guard (`tests/test_faults_plan.py`) holds
the seam to that zero-cost contract.  Activating a :class:`FaultPlan`
(``activate`` / the ``active_plan`` context manager) installs a
:class:`FaultInjector` that counts rule occurrences and fires the
scheduled faults.

Injected failures are *real* exception types carrying an
:class:`InjectedFault` marker mixin: ``store-locked`` raises a genuine
``sqlite3.OperationalError``, ``disk-full`` a genuine ``OSError`` with
``ENOSPC`` — so the production retry/degradation paths under test are
exactly the ones real faults would take.

Executor workers run in spawned processes with their own module globals;
:class:`~repro.exec.Executor` ships the plan with every task and a worker
activates it locally for each run it serves (see :mod:`repro.exec.pool`).
"""

from __future__ import annotations

import errno
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Tuple

from repro.faults.plan import (
    FAULT_CLOCK_SKEW,
    FAULT_DISK_FULL,
    FAULT_FSYNC_FAIL,
    FAULT_HTTP_DISCONNECT,
    FAULT_JOURNAL_CORRUPT,
    FAULT_LEASE_EXPIRY,
    FAULT_JOURNAL_TRUNCATE,
    FAULT_STORE_LOCKED,
    FAULT_WORKER_CRASH,
    FAULT_WORKER_HANG,
    FAULT_WORKER_SLOW,
    FaultPlan,
    FaultRule,
)

#: Exit code of an injected worker crash (distinct from real crashes'
#: codes so telemetry and tests can attribute it).
CRASH_EXIT_CODE = 27


class InjectedFault(Exception):
    """Marker mixin: every injected failure is an instance of this."""

    def __init__(self, fault: str, site: str, message: Optional[str] = None):
        self.fault = fault
        self.site = site
        super().__init__(message or f"injected {fault} at {site}")


class InjectedLocked(sqlite3.OperationalError, InjectedFault):
    """Injected ``database is locked`` — real OperationalError type."""

    def __init__(self, fault: str, site: str):
        self.fault = fault
        self.site = site
        sqlite3.OperationalError.__init__(
            self, f"database is locked (injected {fault} at {site})"
        )


class InjectedDiskError(OSError, InjectedFault):
    """Injected ``OSError`` (ENOSPC for disk-full, EIO for fsync-fail)."""

    def __init__(self, fault: str, site: str, err: int):
        self.fault = fault
        self.site = site
        OSError.__init__(self, err, f"injected {fault} at {site}")


class InjectedDisconnect(ConnectionResetError, InjectedFault):
    """Injected connection reset — real ConnectionResetError type."""

    def __init__(self, fault: str, site: str):
        self.fault = fault
        self.site = site
        ConnectionResetError.__init__(
            self, f"connection reset (injected {fault} at {site})"
        )


class FaultInjector:
    """Runtime state of one active plan: occurrence counters + fire log."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._counts: Dict[int, int] = {}
        self._fired: Dict[int, int] = {}
        self._fires: List[Tuple[str, str]] = []

    # ------------------------------------------------------------- matching

    def _due_rules(self, site: str, ctx: Mapping) -> List[FaultRule]:
        """Count occurrences and collect the rules due to fire (locked)."""
        due: List[FaultRule] = []
        with self._lock:
            for index, r in enumerate(self.plan.rules):
                if not r.matches_site(site) or not r.matches_ctx(ctx):
                    continue
                count = self._counts.get(index, 0) + 1
                self._counts[index] = count
                if r.hits is not None and count not in r.hits:
                    continue
                if r.limit is not None and self._fired.get(index, 0) >= r.limit:
                    continue
                self._fired[index] = self._fired.get(index, 0) + 1
                self._fires.append((site, r.fault))
                due.append(r)
        return due

    def fires(self) -> List[Tuple[str, str]]:
        """Every (site, fault) that has fired, in order."""
        with self._lock:
            return list(self._fires)

    def fire_count(self, fault: Optional[str] = None) -> int:
        with self._lock:
            if fault is None:
                return len(self._fires)
            return sum(1 for _, f in self._fires if f == fault)

    # --------------------------------------------------------------- firing

    def fire(self, site: str, ctx: Mapping) -> None:
        # Act outside the lock: hangs must not serialise other threads'
        # seams, and raising with a lock held is asking for trouble.
        for r in self._due_rules(site, ctx):
            self._act(r, site)

    @staticmethod
    def _act(r: FaultRule, site: str) -> None:
        if r.fault == FAULT_WORKER_CRASH:
            # Hard exit, exactly like an OOM-kill or a segfaulting stack:
            # no exception handling, no atexit.  The short sleep first
            # lets the result queue's feeder thread flush the pending
            # "start" report, so the parent can *attribute* the death and
            # the retry/quarantine paths engage deterministically; the
            # unattributable-death case (report lost with the process) is
            # exercised separately via the ``exec.result`` drop seam.
            time.sleep(0.2)
            os._exit(CRASH_EXIT_CODE)
        if r.fault in (FAULT_WORKER_HANG, FAULT_WORKER_SLOW):
            time.sleep(r.param if r.param is not None else 30.0)
            return
        if r.fault == FAULT_STORE_LOCKED:
            raise InjectedLocked(r.fault, site)
        if r.fault == FAULT_DISK_FULL:
            raise InjectedDiskError(r.fault, site, errno.ENOSPC)
        if r.fault == FAULT_FSYNC_FAIL:
            raise InjectedDiskError(r.fault, site, errno.EIO)
        if r.fault in (FAULT_HTTP_DISCONNECT, FAULT_LEASE_EXPIRY):
            # lease-expiry is a lost heartbeat: same wire-level failure
            # as a disconnect, struck at the fabric.heartbeat seam.
            raise InjectedDisconnect(r.fault, site)
        # Transform-class faults scheduled at an act site degrade to a
        # generic typed failure rather than passing silently.
        raise InjectedFault(r.fault, site)

    # ----------------------------------------------------------- transforms

    def transform(self, site: str, value, ctx: Mapping):
        for r in self._due_rules(site, ctx):
            if r.fault == FAULT_CLOCK_SKEW and isinstance(value, (int, float)):
                value = value + (r.param if r.param is not None else 3600.0)
            elif r.fault == FAULT_JOURNAL_TRUNCATE and isinstance(value, str):
                value = value[: max(1, len(value) // 2)]
            elif r.fault == FAULT_JOURNAL_CORRUPT and isinstance(value, str):
                value = "\x00CORRUPT" + value[len(value) // 2:]
        return value


_ACTIVE: Optional[FaultInjector] = None


def fault_point(site: str, **ctx) -> None:
    """Injection seam for raise/act faults; no-op with no plan active."""
    if _ACTIVE is None:
        return
    _ACTIVE.fire(site, ctx)


def fault_value(site: str, value, **ctx):
    """Injection seam for transform faults; identity with no plan active."""
    if _ACTIVE is None:
        return value
    return _ACTIVE.transform(site, value, ctx)


def active() -> Optional[FaultInjector]:
    """The live injector, or None when no plan is active."""
    return _ACTIVE


def activate(plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` process-wide; returns its injector."""
    global _ACTIVE
    _ACTIVE = FaultInjector(plan)
    return _ACTIVE


def deactivate() -> None:
    """Remove any active plan; seams return to zero-cost no-ops."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def active_plan(plan: FaultPlan):
    """``with active_plan(plan) as injector: ...`` — always deactivates."""
    injector = activate(plan)
    try:
        yield injector
    finally:
        deactivate()


__all__ = [
    "CRASH_EXIT_CODE",
    "FaultInjector",
    "InjectedDiskError",
    "InjectedDisconnect",
    "InjectedFault",
    "InjectedLocked",
    "activate",
    "active",
    "active_plan",
    "deactivate",
    "fault_point",
    "fault_value",
]
