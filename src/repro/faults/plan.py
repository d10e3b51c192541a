"""Fault taxonomy and deterministic fault schedules.

A :class:`FaultPlan` is a seeded, picklable schedule of fault events: it
names *which* fault class fires *where* (an injection-site string such
as ``exec.worker.trial`` or ``store.execute``) and *when* (by occurrence
index at the site, by context match, or both).  Plans are pure data —
they cross the ``spawn`` boundary into executor workers unchanged — and
every bit of scheduling randomness comes from ``random.Random(seed)``,
so the same plan against the same campaign fires the same faults in the
same places, run after run.  That determinism is what makes chaos runs
*reproducible scenarios* rather than flaky stress tests.

Fault classes (see ``docs/robustness.md`` for the full taxonomy):

===================  ====================================================
``worker-crash``     the worker process hard-exits (``os._exit``)
``worker-hang``      the worker sleeps past the executor's timeout
``worker-slow``      the worker sleeps briefly (latency, not failure)
``store-locked``     ``sqlite3.OperationalError: database is locked``
``disk-full``        ``OSError(ENOSPC)`` from a write path
``fsync-fail``       ``OSError(EIO)`` from an fsync
``journal-truncate`` a journal line is torn mid-record
``journal-corrupt``  a journal line is replaced with garbage
``clock-skew``       a telemetry timestamp jumps by ``param`` seconds
``http-disconnect``  the HTTP client's connection resets mid-request
``lease-expiry``     a fabric worker's heartbeats stop reaching the
                     coordinator; its lease expires and the task re-runs
``worker-sigkill``   a fabric worker process is SIGKILLed mid-lease
===================  ====================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

FAULT_WORKER_CRASH = "worker-crash"
FAULT_WORKER_HANG = "worker-hang"
FAULT_WORKER_SLOW = "worker-slow"
FAULT_STORE_LOCKED = "store-locked"
FAULT_DISK_FULL = "disk-full"
FAULT_FSYNC_FAIL = "fsync-fail"
FAULT_JOURNAL_TRUNCATE = "journal-truncate"
FAULT_JOURNAL_CORRUPT = "journal-corrupt"
FAULT_CLOCK_SKEW = "clock-skew"
FAULT_HTTP_DISCONNECT = "http-disconnect"
FAULT_LEASE_EXPIRY = "lease-expiry"
FAULT_WORKER_SIGKILL = "worker-sigkill"
FAULT_DRAIN_DURING_LEASE = "drain-during-lease"

#: Every fault class, in documentation order.  New classes append: the
#: per-class schedule mix uses positional indices, and appending keeps
#: every older class's seeded schedule byte-stable.  Removing a class
#: shifts the index of every class after it, which moves no schedule
#: only while those classes use fixed ``hits`` (``drain-during-lease``
#: does).
FAULT_CLASSES = (
    FAULT_WORKER_CRASH,
    FAULT_WORKER_HANG,
    FAULT_WORKER_SLOW,
    FAULT_STORE_LOCKED,
    FAULT_DISK_FULL,
    FAULT_FSYNC_FAIL,
    FAULT_JOURNAL_TRUNCATE,
    FAULT_JOURNAL_CORRUPT,
    FAULT_CLOCK_SKEW,
    FAULT_HTTP_DISCONNECT,
    FAULT_LEASE_EXPIRY,
    FAULT_WORKER_SIGKILL,
    FAULT_DRAIN_DURING_LEASE,
)


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: fire ``fault`` at ``site`` when matched.

    ``site`` is an exact injection-site name, or a prefix ending in
    ``*`` (``store.*`` matches every store site).  ``hits`` restricts
    firing to the given 1-based occurrence indices of this rule at the
    site (``None`` = every occurrence); the occurrence counter only
    advances on context matches, so ``when={"attempt": 1}, hits=(2,)``
    means "the second first-attempt trial".  ``limit`` caps total fires.
    ``param`` parameterises the fault (sleep seconds for hang/slow,
    skew seconds for clock-skew).
    """

    fault: str
    site: str
    hits: Optional[Tuple[int, ...]] = None
    when: Tuple[Tuple[str, object], ...] = ()
    param: Optional[float] = None
    limit: Optional[int] = None

    def matches_site(self, site: str) -> bool:
        if self.site.endswith("*"):
            return site.startswith(self.site[:-1])
        return site == self.site

    def matches_ctx(self, ctx: Mapping) -> bool:
        for key, value in self.when:
            if ctx.get(key) != value:
                return False
        return True


def rule(
    fault: str,
    site: str,
    hits: Optional[Tuple[int, ...]] = None,
    when: Optional[Mapping] = None,
    param: Optional[float] = None,
    limit: Optional[int] = None,
) -> FaultRule:
    """Build a :class:`FaultRule`, normalising ``when`` to a sorted tuple."""
    if fault not in FAULT_CLASSES:
        raise ValueError(f"unknown fault class {fault!r}")
    return FaultRule(
        fault=fault,
        site=site,
        hits=tuple(hits) if hits is not None else None,
        when=tuple(sorted((when or {}).items())),
        param=param,
        limit=limit,
    )


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded bundle of fault rules.

    Immutable and picklable: the executor ships the plan to spawned
    workers, which activate it locally so worker-side seams fire with
    the same deterministic schedule as the parent's.
    """

    name: str
    rules: Tuple[FaultRule, ...]
    seed: int = 0

    def rules_for(self, site: str) -> Tuple[FaultRule, ...]:
        return tuple(r for r in self.rules if r.matches_site(site))

    def describe(self) -> str:
        parts = []
        for r in self.rules:
            spec = f"{r.fault}@{r.site}"
            if r.hits:
                spec += f"#{','.join(map(str, r.hits))}"
            if r.when:
                spec += "{" + ",".join(f"{k}={v}" for k, v in r.when) + "}"
            parts.append(spec)
        return f"{self.name}(seed={self.seed}): " + "; ".join(parts)


def seeded_hits(seed: int, count: int, lo: int = 1, hi: int = 10) -> Tuple[int, ...]:
    """``count`` distinct occurrence indices in [lo, hi], deterministic.

    The helper every named fault matrix uses to spread its fault events:
    same seed, same schedule, so a chaos failure reproduces exactly.
    """
    population = list(range(lo, max(lo, hi) + 1))
    count = min(count, len(population))
    return tuple(sorted(random.Random(seed).sample(population, count)))


@dataclass
class FaultMatrix:
    """An ordered set of named single-class plans for ``repro chaos``."""

    name: str
    plans: Dict[str, FaultPlan] = field(default_factory=dict)


def _single_class_plan(fault: str, seed: int) -> FaultPlan:
    """The canonical chaos scenario for one fault class."""
    mix = seed * 1000003 + FAULT_CLASSES.index(fault)
    if fault == FAULT_WORKER_CRASH:
        rules = (rule(fault, "exec.worker.trial", when={"attempt": 1}),)
    elif fault == FAULT_WORKER_HANG:
        rules = (
            rule(fault, "exec.worker.trial", when={"attempt": 1}, param=30.0),
        )
    elif fault == FAULT_WORKER_SLOW:
        rules = (rule(fault, "exec.worker.trial", param=0.05),)
    elif fault == FAULT_STORE_LOCKED:
        # A transient burst the warehouse retry discipline must absorb.
        rules = (
            rule(fault, "store.execute", hits=seeded_hits(mix, 3, 1, 8),
                 when={"sql": "insert"}),
        )
    elif fault == FAULT_DISK_FULL:
        # Persistent: every warehouse INSERT fails for the whole run, so
        # the store-sink breaker must trip and spill to the sideline.
        rules = (rule(fault, "store.execute", when={"sql": "insert"}),)
    elif fault == FAULT_FSYNC_FAIL:
        rules = (rule(fault, "exec.manifest.fsync"),)
    elif fault == FAULT_JOURNAL_TRUNCATE:
        rules = (
            rule(fault, "exec.manifest.line", hits=seeded_hits(mix, 2, 1, 6)),
        )
    elif fault == FAULT_JOURNAL_CORRUPT:
        rules = (
            rule(fault, "exec.manifest.line", hits=seeded_hits(mix, 2, 1, 6)),
        )
    elif fault == FAULT_CLOCK_SKEW:
        rules = (rule(fault, "exec.manifest.clock", param=7200.0),)
    elif fault == FAULT_HTTP_DISCONNECT:
        rules = (rule(fault, "client.request", hits=(1,)),)
    elif fault == FAULT_LEASE_EXPIRY:
        # Every heartbeat the first lease attempt sends is lost; the
        # lease expires under the worker and the task re-runs on
        # attempt 2, whose beats get through.
        rules = (rule(fault, "fabric.heartbeat", when={"attempt": 1}),)
    elif fault == FAULT_WORKER_SIGKILL:
        # Process-level: the chaos driver SIGKILLs a real worker
        # subprocess mid-lease; the rule documents the schedule (first
        # lease dies) rather than firing through the in-process seam.
        rules = (rule(fault, "fabric.worker.process", hits=(1,)),)
    elif fault == FAULT_DRAIN_DURING_LEASE:
        # Registry-level: the leaseholder gets a durable drain directive
        # mid-lease; it must finish that lease (never hand it to a
        # second attempt) and then exit.
        rules = (rule(fault, "fabric.worker.drain", hits=(1,)),)
    else:  # pragma: no cover - FAULT_CLASSES is exhaustive
        raise ValueError(f"unknown fault class {fault!r}")
    return FaultPlan(name=fault, rules=rules, seed=seed)


#: Fault classes per named matrix.  ``smoke`` sticks to the fast,
#: service-free classes; ``default`` exercises every class in the
#: taxonomy, including the in-process campaign-service round trip.
MATRIX_CLASSES = {
    "smoke": (
        FAULT_WORKER_CRASH,
        FAULT_STORE_LOCKED,
        FAULT_DISK_FULL,
        FAULT_JOURNAL_CORRUPT,
        FAULT_LEASE_EXPIRY,
        FAULT_WORKER_SIGKILL,
    ),
    # Drain racing a live lease (CI's fabric-chaos-smoke job).
    "fleet-smoke": (FAULT_DRAIN_DURING_LEASE,),
    "default": FAULT_CLASSES,
}


def fault_matrix(name: str, seed: int = 0) -> FaultMatrix:
    """Resolve a named matrix into per-fault-class plans."""
    try:
        classes = MATRIX_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(MATRIX_CLASSES))
        raise ValueError(f"unknown fault matrix {name!r} (known: {known})")
    return FaultMatrix(
        name=name,
        plans={fault: _single_class_plan(fault, seed) for fault in classes},
    )


__all__ = [
    "FAULT_CLASSES",
    "FAULT_WORKER_CRASH",
    "FAULT_WORKER_HANG",
    "FAULT_WORKER_SLOW",
    "FAULT_STORE_LOCKED",
    "FAULT_DISK_FULL",
    "FAULT_FSYNC_FAIL",
    "FAULT_JOURNAL_TRUNCATE",
    "FAULT_JOURNAL_CORRUPT",
    "FAULT_CLOCK_SKEW",
    "FAULT_HTTP_DISCONNECT",
    "FAULT_LEASE_EXPIRY",
    "FAULT_WORKER_SIGKILL",
    "FAULT_DRAIN_DURING_LEASE",
    "FaultRule",
    "FaultPlan",
    "FaultMatrix",
    "MATRIX_CLASSES",
    "fault_matrix",
    "rule",
    "seeded_hits",
]
