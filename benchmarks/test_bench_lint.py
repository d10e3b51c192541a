"""Lint engine throughput: cold (parse everything) vs warm (cache) runs.

Emits ``output/BENCH_lint.json`` with files/sec for both paths and the
speedup.  The acceptance bar is warm >= 5x cold with byte-identical
findings — a warm run replays summaries from the content-hash cache and
only re-runs the whole-program phase, so if the speedup collapses the
incremental machinery has regressed.
"""

import dataclasses
import time
from pathlib import Path

from repro.lint import LintConfig, find_repo_root, lint_paths, render_findings

from conftest import OUTPUT_DIR, emit_bench, run_once

#: The cache must be regression-proof against the real tree, so the
#: bench lints src/repro itself — through a bench-private cache file so
#: it never races a developer's own warm cache.
_CACHE_NAME = "benchmarks/output/.lint-bench-cache.json"


def _config():
    root = find_repo_root(Path(__file__).resolve().parent)
    return dataclasses.replace(
        LintConfig.for_root(root), cache_name=_CACHE_NAME
    )


def _run(config):
    return lint_paths(config=config)


def test_bench_lint_cold_vs_warm(benchmark):
    OUTPUT_DIR.mkdir(exist_ok=True)
    config = _config()
    cache = config.cache_path()
    if cache.exists():
        cache.unlink()

    def campaign():
        t0 = time.perf_counter()
        cold = _run(config)
        cold_s = time.perf_counter() - t0
        t1 = time.perf_counter()
        warm = _run(config)
        warm_s = time.perf_counter() - t1
        return cold, cold_s, warm, warm_s

    cold, cold_s, warm, warm_s = run_once(benchmark, campaign)

    # The warm run served every file from the cache...
    assert cold.cache_misses == cold.files and cold.cache_hits == 0
    assert warm.cache_hits == warm.files and warm.cache_misses == 0
    # ...with byte-identical output on both channels.
    for channel in ("findings", "suppressed"):
        assert render_findings(getattr(warm, channel), "json") == (
            render_findings(getattr(cold, channel), "json")
        ), f"warm {channel} differ from cold"

    speedup = cold_s / warm_s
    emit_bench(
        __file__,
        files=cold.files,
        rules=len(cold.rules_run),
        cold_s=round(cold_s, 4),
        warm_s=round(warm_s, 4),
        cold_files_per_s=round(cold.files / cold_s, 1),
        warm_files_per_s=round(warm.files / warm_s, 1),
        speedup=round(speedup, 2),
    )
    print(
        f"\nlint bench: {cold.files} files; cold {cold_s:.3f}s "
        f"({cold.files / cold_s:.0f} files/s), warm {warm_s:.3f}s "
        f"({cold.files / warm_s:.0f} files/s), speedup {speedup:.1f}x"
    )
    # Acceptance: the warm path must stay at least 5x faster than cold.
    assert speedup >= 5.0, (
        f"warm lint only {speedup:.1f}x faster than cold (need >= 5x): "
        "the incremental cache is no longer carrying the parse/extract cost"
    )
    if cache.exists():
        cache.unlink()
