"""repro.lint: determinism & concurrency static analysis for this repo.

The harness' core guarantees — bit-identical results at any ``--jobs``
count, seeded determinism in the simulator and metric paths, and lock
discipline in the threaded campaign service — are easy to break with a
single stray ``time.time()`` or an unlocked shared-attribute write.
This package encodes those invariants as AST-based rules so they are
machine-checked on every change instead of relying on review vigilance:

* **Determinism pack** (``netsim/``, ``cca/``, ``stacks/``, ``core/``,
  ``harness/``, ``analysis/``, ``viz/``): no wall-clock reads, no
  unseeded RNG, no iteration over sets where order reaches results, no
  ``id()``-keyed dicts, no ``os.environ`` reads outside the config seam.
* **Concurrency pack** (``service/``, ``exec/``, ``store/``,
  ``faults/``, ``fabric/``): a lock-discipline checker that learns
  which ``self._*`` attributes a class protects with its lock and
  reports unlocked accesses, plus rules against SQLite connections
  crossing threads and raw retry sleeps.
* **Contract pack**: every registered stack passes the full
  :class:`~repro.stacks.base.StackProfile` field set, every CCA
  subclass implements the required hook surface, and every CLI
  subcommand is documented in README/docs.
* **Whole-program rules** over the project's import/call/lock graph:
  lock-order cycles, blocking calls made or reached while a lock is
  held (anywhere in the project), and nondeterminism flowing into
  trial identity.

Entry points: ``repro lint`` (CLI), :func:`repro.lint.engine.lint_paths`
(API).  The only way to accept a finding is an inline
``# lint: disable=RULE -- justification``; one that suppresses nothing
is itself a finding.
"""

from repro.lint.config import LintConfig, find_repo_root
from repro.lint.engine import LintReport, build_project_graph, lint_paths
from repro.lint.findings import Finding, render_findings
from repro.lint.graph import ProjectGraph, build_graph, extract_summary
from repro.lint.rules import all_rules
from repro.lint.sanitizer import LockOrderSanitizer

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "LockOrderSanitizer",
    "ProjectGraph",
    "all_rules",
    "build_graph",
    "build_project_graph",
    "extract_summary",
    "find_repo_root",
    "lint_paths",
    "render_findings",
]
