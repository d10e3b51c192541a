"""Shared benchmark infrastructure.

Every benchmark regenerates one table or figure of the paper.  Simulation
results (sampled point clouds, bandwidth shares) persist in the benches'
own results warehouse, ``benchmarks/.quicbench_store.db`` (gitignored),
so re-runs only pay for the analysis; the rendered text artifacts land in
``benchmarks/output/`` for inspection.

Benchmarks run the underlying experiment exactly once
(``benchmark.pedantic(..., rounds=1)``) — the interesting output is the
reproduced numbers, not the timing.

Every ``test_bench_*`` module additionally emits one machine-readable
``output/BENCH_<module>.json`` record: an autouse fixture times every
test, a report hook notes every failure, :func:`emit_bench` lets a module
attach richer fields (packets/sec and the like), and the session-finish
hook writes the merged record with a ``passed`` flag — so CI history can
diff wall times per module, and a record can never hide a failed
assertion, without each benchmark hand-rolling its own JSON.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.harness.config import ExperimentConfig
from repro.store import StoreCache

BENCH_DIR = Path(__file__).parent
OUTPUT_DIR = BENCH_DIR / "output"
STORE_PATH = BENCH_DIR / ".quicbench_store.db"

#: Bench-scale protocol: long enough for BBR's 10 s ProbeRTT cycles to
#: repeat within every trial (see DESIGN.md scaling note).
BENCH_CONFIG = ExperimentConfig(duration_s=100.0, trials=3)

#: Shorter protocol for the big pairwise matrices, where only mean shares
#: matter.
SHARE_CONFIG = ExperimentConfig(duration_s=40.0, trials=2)

#: Worker-process count for the experiment executor; ``JOBS=N make bench``
#: (or ``QUICBENCH_JOBS=N pytest benchmarks/``) parallelises the trial
#: campaigns.  Results are numerically identical at any job count.
_JOBS = int(os.environ.get("QUICBENCH_JOBS", "1") or "1")


@pytest.fixture(scope="session")
def bench_cache():
    """Memory LRU over the benches' warehouse, closed at session end."""
    cache = StoreCache(STORE_PATH)
    yield cache
    cache.close()


@pytest.fixture(scope="session")
def bench_executor(bench_cache):
    """A shared :class:`repro.exec.Executor`, or ``None`` when serial.

    ``None`` keeps the historical single-process code path byte-for-byte
    when ``QUICBENCH_JOBS`` is unset or 1.
    """
    if _JOBS <= 1:
        return None
    from repro.exec import Executor

    OUTPUT_DIR.mkdir(exist_ok=True)
    return Executor(
        jobs=_JOBS,
        cache=bench_cache,
        manifest_path=OUTPUT_DIR / "run_manifest.jsonl",
    )


@pytest.fixture(scope="session")
def bench_config():
    return BENCH_CONFIG


@pytest.fixture(scope="session")
def share_config():
    return SHARE_CONFIG


@pytest.fixture(scope="session")
def save_artifact():
    OUTPUT_DIR.mkdir(exist_ok=True)

    def save(name: str, text: str) -> None:
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n[saved to benchmarks/output/{name}.txt]")

    return save


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


# --------------------------------------------------- BENCH_*.json records

#: module basename (e.g. "topology") -> {test name -> wall seconds}.
_BENCH_TIMES = {}
#: module basename -> extra fields attached via :func:`emit_bench`.
_BENCH_EXTRA = {}
#: module basenames with at least one failed test (any phase).
_BENCH_FAILED = set()


def _bench_name(module_name: str) -> str:
    short = module_name.rsplit(".", 1)[-1]
    prefix = "test_bench_"
    return short[len(prefix):] if short.startswith(prefix) else short


def emit_bench(module_file: str, **payload) -> None:
    """Attach module-specific fields to the module's BENCH record.

    ``module_file`` is the calling module's ``__file__``; keyword fields
    (packets, packets_per_s, ...) are merged into the
    ``BENCH_<module>.json`` written at session end.
    """
    name = _bench_name(Path(module_file).stem)
    _BENCH_EXTRA.setdefault(name, {}).update(payload)


@pytest.fixture(autouse=True)
def _bench_timer(request):
    """Record every benchmark test's wall time for the module record."""
    start = time.perf_counter()
    yield
    wall_s = time.perf_counter() - start
    name = _bench_name(request.module.__name__)
    _BENCH_TIMES.setdefault(name, {})[request.node.name] = round(wall_s, 4)


def pytest_runtest_logreport(report):
    """Note every failed benchmark test for its module's ``passed`` flag."""
    if report.failed:
        _BENCH_FAILED.add(_bench_name(Path(report.nodeid.split("::")[0]).stem))


def pytest_sessionfinish(session, exitstatus):
    """Write one ``output/BENCH_<module>.json`` per benchmark module."""
    if not _BENCH_TIMES and not _BENCH_EXTRA:
        return
    OUTPUT_DIR.mkdir(exist_ok=True)
    for name in sorted(set(_BENCH_TIMES) | set(_BENCH_EXTRA)):
        tests = _BENCH_TIMES.get(name, {})
        payload = {
            "module": f"test_bench_{name}",
            "tests": tests,
            "wall_s": round(sum(tests.values()), 4),
            "passed": name not in _BENCH_FAILED,
        }
        payload.update(_BENCH_EXTRA.get(name, {}))
        (OUTPUT_DIR / f"BENCH_{name}.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
