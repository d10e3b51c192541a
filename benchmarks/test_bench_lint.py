"""Lint engine throughput: the one cold pass over src/repro.

Emits ``output/BENCH_lint.json`` with the cold pass's wall time and
files/sec.  Every run parses, walks and analyses every file, so two
back-to-back passes must produce byte-identical findings: a difference
means the analysis depends on something besides the source.
"""

import time
from pathlib import Path

from repro.lint import LintConfig, find_repo_root, lint_paths, render_findings

from conftest import OUTPUT_DIR, emit_bench, run_once


def test_bench_lint_cold_pass(benchmark):
    OUTPUT_DIR.mkdir(exist_ok=True)
    config = LintConfig.for_root(
        find_repo_root(Path(__file__).resolve().parent)
    )

    def campaign():
        t0 = time.perf_counter()
        first = lint_paths(config=config)
        cold_s = time.perf_counter() - t0
        second = lint_paths(config=config)
        return first, cold_s, second

    first, cold_s, second = run_once(benchmark, campaign)

    assert first.files == second.files
    for channel in ("findings", "suppressed"):
        assert render_findings(getattr(second, channel), "json") == (
            render_findings(getattr(first, channel), "json")
        ), f"two cold passes give different {channel}"

    emit_bench(
        __file__,
        files=first.files,
        rules=len(first.rules_run),
        cold_s=round(cold_s, 4),
        cold_files_per_s=round(first.files / cold_s, 1),
    )
    print(
        f"\nlint bench: {first.files} files, {len(first.rules_run)} rules; "
        f"cold {cold_s:.3f}s ({first.files / cold_s:.0f} files/s)"
    )
