"""Figure 1: a single convex hull overestimates quiche CUBIC's conformance.

The paper's motivating example: with the legacy single-hull PE quiche
CUBIC scores 0.48; the clustered definition drops it to 0.08 because the
single hull's overlap is mostly empty space.
"""

import numpy as np
from conftest import emit_bench, run_once

from repro.core.conformance import conformance, conformance_legacy
from repro.core.envelope import EnvelopeConfig, build_envelope
from repro.harness import scenarios
from repro.harness.conformance import gather_trials, reference_trials
from repro.harness.runner import Impl, reference_impl


def test_fig1_single_hull_vs_clustered(benchmark, bench_config, bench_executor, save_artifact):
    condition = scenarios.shallow_buffer()

    def run():
        test_trials = gather_trials(
            Impl("quiche", "cubic"), reference_impl("cubic"), condition,
            bench_config, executor=bench_executor,
        )
        ref_trials = reference_trials("cubic", condition, bench_config, executor=bench_executor)
        clustered = conformance(
            build_envelope(test_trials, EnvelopeConfig()),
            build_envelope(ref_trials, EnvelopeConfig()),
        )
        single = conformance(
            build_envelope(test_trials, EnvelopeConfig(single_hull=True)),
            build_envelope(ref_trials, EnvelopeConfig(single_hull=True)),
        )
        legacy = conformance_legacy(np.vstack(test_trials), np.vstack(ref_trials))
        return single, clustered, legacy

    single, clustered, legacy = run_once(benchmark, run)
    text = (
        "Fig 1: quiche CUBIC conformance under the two PE definitions\n"
        f"  single convex hull (Fig 1a style): {single:.2f}   [paper: 0.48]\n"
        f"  legacy metric (5% trim, one hull): {legacy:.2f}\n"
        f"  clustering-based (Fig 1b style):   {clustered:.2f}   [paper: 0.12]\n"
        "  -> the single hull overestimates conformance for clustered clouds"
    )
    save_artifact("fig01_clustered_pe", text)
    emit_bench(__file__, single_hull=round(single, 3),
               clustered=round(clustered, 3), legacy=round(legacy, 3))
    assert clustered < single
    assert clustered < 0.5
