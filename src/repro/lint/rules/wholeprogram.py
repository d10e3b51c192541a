"""Whole-program rules: lock-order deadlocks, held-lock blocking, taint.

These rules are ``scope = "project"``: instead of a list of parsed
modules they receive the assembled :class:`repro.lint.graph.ProjectGraph`
(import graph, call graph, lock model) and reason across module
boundaries.  They live in their own module — not ``concurrency.py`` /
``determinism.py`` — because the graph layer itself imports those packs'
vocabularies (``WALL_CLOCK_CALLS``), and rules are the leaves of that
import tree.

* ``lock-order-cycle`` — cycles in the interprocedural
  lock-acquisition-order graph: two code paths that take the same locks
  in opposite orders can deadlock under concurrency, even when each
  path is individually correct.
* ``lock-held-blocking`` — a blocking primitive (sqlite commit, HTTP
  I/O, ``sleep``, subprocess, ``queue.get``/``join``, a thread or
  future ``result()``) called while a lock is held, either directly in
  the locking function or reached through any resolved call chain.
* ``taint-identity`` — a nondeterminism source (wall clock, RNG,
  ``os.urandom``, ``id()``, set iteration order) flows into an identity
  sink (``trial_identity``, ``cache_key``, spec fingerprints, the
  content-addressed trial writes); trial identity must be a pure
  function of the spec or dedup/diff/bit-identical replay all break.
"""

from __future__ import annotations

from typing import List

from repro.lint.findings import Finding
from repro.lint.rules import ProjectRule


class LockOrderCycleRule(ProjectRule):
    id = "lock-order-cycle"
    pack = "concurrency"
    description = (
        "the interprocedural lock-acquisition-order graph must be "
        "acyclic (a cycle is a potential deadlock)"
    )

    def check_project(self, graph, config) -> List[Finding]:
        return graph.lock_analysis().cycle_findings(self.id)


class LockHeldBlockingRule(ProjectRule):
    id = "lock-held-blocking"
    pack = "concurrency"
    description = (
        "no lock may be held across a blocking call, made directly or "
        "reached through any resolved call chain (sqlite commit, HTTP, "
        "sleep, subprocess, joins, queue and future waits)"
    )

    def check_project(self, graph, config) -> List[Finding]:
        return graph.lock_analysis().blocking_findings(self.id)


class TaintIdentityRule(ProjectRule):
    id = "taint-identity"
    pack = "determinism"
    description = (
        "nondeterminism sources (clock/RNG/urandom/id()/set order) "
        "must not flow into identity sinks (trial_identity, "
        "cache_key, fingerprints, put_trial)"
    )

    def check_project(self, graph, config) -> List[Finding]:
        from repro.lint.taint import TaintAnalysis

        return TaintAnalysis(graph, config).findings(self.id)


RULES = (
    LockOrderCycleRule,
    LockHeldBlockingRule,
    TaintIdentityRule,
)

__all__ = ["RULES"] + [cls.__name__ for cls in RULES]
