"""Conformance-analysis cost: Python calls and seconds per cell.

Analyses one fixed cell, the seeded two-cluster clouds of
``tests/test_core_golden.py`` (three trials of 80 points per side, k
chosen by the retention rule): it builds both envelopes and runs
:func:`evaluate_conformance` on them, and emits
``output/BENCH_analysis.json``.  An untimed run under ``cProfile`` counts
every Python and builtin call of one such analysis, after a first one
has warmed the imports.  ``calls_per_cell`` therefore depends
only on the code and the seed, never on the host: it is the CI guard.
``s_per_cell`` (the mean of a few timed evaluations) is recorded for
information only.
"""

import cProfile
import pstats
import time

import numpy as np

from repro.core.conformance import evaluate_conformance
from repro.core.envelope import EnvelopeConfig, build_envelope

from conftest import OUTPUT_DIR, emit_bench, run_once

TIMED_CELLS = 5


def _blobs(centers, n, spread, seed):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(c, spread, size=(n, 2)) for c in centers])


def _cell():
    """The golden test's ``two-clusters`` inputs."""
    test = [_blobs([(20.0, 2.0), (60.0, 8.0)], 40, (2.0, 0.4), seed=100 + t)
            for t in range(3)]
    ref = [_blobs([(22.0, 2.2), (58.0, 7.5)], 40, (2.0, 0.4), seed=200 + t)
           for t in range(3)]
    return test, ref, EnvelopeConfig()


def _analyse(test, ref, config):
    """One cell's analysis, both envelopes included."""
    return evaluate_conformance(
        build_envelope(test, config), build_envelope(ref, config)
    )


def test_bench_analysis_calls_per_cell(benchmark):
    OUTPUT_DIR.mkdir(exist_ok=True)
    test, ref, config = _cell()
    _analyse(test, ref, config)  # warm imports and first-call caches

    def profiled():
        profile = cProfile.Profile()
        profile.enable()
        result = _analyse(test, ref, config)
        profile.disable()
        return result, pstats.Stats(profile).total_calls

    result, calls = run_once(benchmark, profiled)
    assert result.test_envelope.k == 2 and result.reference_envelope.k == 2

    start = time.perf_counter()
    for _ in range(TIMED_CELLS):
        _analyse(test, ref, config)
    s_per_cell = (time.perf_counter() - start) / TIMED_CELLS
    emit_bench(
        __file__,
        calls_per_cell=calls,
        s_per_cell=round(s_per_cell, 4),
        conformance_t=round(result.conformance_t, 6),
    )
    print(f"\nanalysis bench: {calls} profiled calls/cell, {s_per_cell:.4f} s/cell")
