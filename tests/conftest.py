"""Shared fixtures: fast experiment configs and isolated caches.

Setting ``REPRO_LOCK_SANITIZER=1`` additionally runs the whole suite
under the runtime lock-order sanitizer (:mod:`repro.lint.sanitizer`):
every project lock is instrumented, actual acquisition orders are
recorded, and at session end they are cross-checked against the static
lock graph — a contradiction (a cycle in the merged graph) fails the
run.  ``REPRO_LOCK_SANITIZER_REPORT=<path>`` writes the full report.
"""

import json
import os

import pytest

from repro.harness.cache import ResultCache
from repro.harness.config import ExperimentConfig, NetworkCondition

_SANITIZER = None
if os.environ.get("REPRO_LOCK_SANITIZER"):
    from repro.lint.sanitizer import LockOrderSanitizer

    _SANITIZER = LockOrderSanitizer.for_package()
    _SANITIZER.install()  # before test modules import project code


def pytest_sessionfinish(session, exitstatus):
    if _SANITIZER is None:
        return
    _SANITIZER.uninstall()
    report = _SANITIZER.crosscheck()
    out = os.environ.get("REPRO_LOCK_SANITIZER_REPORT")
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    print(
        "\nlock sanitizer: "
        f"{report['locks_instrumented']} locks instrumented, "
        f"{len(report['runtime_edges'])} runtime orderings, "
        f"{len(report['translated_edges'])} matched to the static graph"
    )
    if not report["ok"]:
        raise RuntimeError(
            "lock sanitizer: runtime acquisition order contradicts the "
            f"static lock graph: runtime cycles={report['runtime_cycles']} "
            f"merged cycles={report['merged_cycles']}"
        )


@pytest.fixture
def fresh_cache():
    """Memory-only cache isolated to one test."""
    return ResultCache()


@pytest.fixture
def fresh_executor(fresh_cache):
    """A jobs=1 executor over the test's isolated cache."""
    from repro.exec import Executor

    return Executor(cache=fresh_cache)


@pytest.fixture
def quick_config():
    """Short protocol for integration tests (seconds, not minutes)."""
    return ExperimentConfig(duration_s=12.0, trials=2)


@pytest.fixture
def small_condition():
    """A light network so packet counts stay low in unit tests."""
    return NetworkCondition(bandwidth_mbps=10.0, rtt_ms=20.0, buffer_bdp=1.0)
