"""Lint configuration: which rule packs apply where, and the sanctioned seams.

The config is code, not a dotfile: the scoping *is* part of the
repository's determinism contract (e.g. "``exec/telemetry.py`` may read
the wall clock, but only through :func:`repro.exec.telemetry.default_clock`"),
so it lives next to the rules and changes go through review like any
other invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import FrozenSet, Optional, Tuple


def find_repo_root(start: Optional[Path] = None) -> Path:
    """Walk upward until a directory containing ``src/repro`` appears.

    Falls back to ``start`` itself so the linter still runs (without the
    doc-coverage rule finding any docs) when pointed at a bare tree.
    """
    start = (start or Path.cwd()).resolve()
    probe = start if start.is_dir() else start.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "src" / "repro").is_dir():
            return candidate
    return probe


@dataclass(frozen=True)
class LintConfig:
    """Scoping and seam declarations for every rule pack."""

    #: Repository root (holds README.md and docs/).
    root: Path
    #: The package the linter analyses (module paths are relative to it).
    src: Path

    #: Packages whose code feeds simulation results: the determinism
    #: pack applies to every file under these first-level directories.
    determinism_dirs: Tuple[str, ...] = (
        "netsim", "cca", "stacks", "core", "harness", "analysis", "viz",
    )
    #: Telemetry/service files additionally covered by the wall-clock
    #: rule: their timestamps must flow through the sanctioned clock
    #: seam below so tests can inject a fake clock.
    wallclock_extra_files: Tuple[str, ...] = (
        "exec/telemetry.py",
        "service/scheduler.py",
        "faults/retry.py",
    )
    #: The one sanctioned wall-clock read in the entire codebase; it
    #: carries the justified suppression, everything else injects it.
    sanctioned_clock: str = "repro.exec.telemetry.default_clock"

    #: Packages with shared mutable state: the concurrency pack applies
    #: to every file under these first-level directories.
    concurrency_dirs: Tuple[str, ...] = (
        "service", "exec", "store", "faults", "fabric",
    )

    #: Files allowed to call ``time.sleep`` directly: the RetryPolicy
    #: sleep seam itself and the fault injector's hang/slow actions.
    #: Everywhere else in the pipeline packages a raw sleep is a retry
    #: loop dodging the unified policy (rule ``raw-sleep-retry``).
    sleep_allowed_files: Tuple[str, ...] = (
        "faults/retry.py",
        "faults/inject.py",
    )
    #: The one sanctioned blocking sleep; retry paths inject it.
    sanctioned_sleep: str = "repro.faults.retry.default_sleep"
    #: Attribute initialisers that are internally synchronised; the
    #: lock-discipline checker never reports accesses to attributes
    #: built from these, even when they are also touched under a lock.
    thread_safe_factories: FrozenSet[str] = frozenset(
        {
            "queue.Queue",
            "queue.PriorityQueue",
            "queue.LifoQueue",
            "queue.SimpleQueue",
            "threading.Event",
            "threading.Semaphore",
            "threading.BoundedSemaphore",
            "threading.Barrier",
            "itertools.count",
        }
    )

    #: Files allowed to read ``os.environ`` (the config seam); everywhere
    #: else an environment read is hidden global state.
    environ_allowed_files: Tuple[str, ...] = ("harness/config.py",)

    #: Documentation corpus for the CLI doc-coverage contract rule.
    doc_files: Tuple[str, ...] = ("README.md",)
    doc_dirs: Tuple[str, ...] = ("docs",)

    #: Identity sinks for the determinism taint pass: values reaching
    #: these callables must be pure functions of the campaign spec.
    #: Exact qualified names resolved against the project call graph.
    taint_sinks: Tuple[str, ...] = (
        "repro.harness.runner.trial_identity",
        "repro.harness.runner._trial_seed",
        "repro.harness.cache.cache_key",
    )
    #: Qualified-name suffixes also treated as identity sinks (the spec
    #: ``fingerprint()`` methods and the content-addressed trial writes).
    taint_sink_suffixes: Tuple[str, ...] = (
        ".fingerprint",
        ".put_trial",
        ".put_trials",
    )

    #: Rule ids to run; empty means every registered rule.
    enabled_rules: Tuple[str, ...] = ()

    @classmethod
    def for_root(cls, root: Path, **overrides) -> "LintConfig":
        root = Path(root).resolve()
        return cls(root=root, src=root / "src" / "repro", **overrides)

    def doc_corpus(self) -> str:
        """Concatenated documentation text for contract rules."""
        chunks = []
        for name in self.doc_files:
            path = self.root / name
            if path.is_file():
                chunks.append(path.read_text(encoding="utf-8"))
        for name in self.doc_dirs:
            directory = self.root / name
            if directory.is_dir():
                for path in sorted(directory.glob("*.md")):
                    chunks.append(path.read_text(encoding="utf-8"))
        return "\n".join(chunks)


#: Attribute initialisers recognised as locks by the concurrency pack.
LOCK_FACTORIES = frozenset(
    {"threading.Lock", "threading.RLock", "threading.Condition"}
)


__all__ = ["LintConfig", "LOCK_FACTORIES", "find_repo_root"]
