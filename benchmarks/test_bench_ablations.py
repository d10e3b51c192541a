"""Ablations of the PE design choices DESIGN.md calls out.

* clustered multi-hull vs single hull (the Fig 1 argument, quantified
  over several implementations);
* intersection-over-trials outlier removal vs the legacy 5 % trim;
* sampling period sensitivity (paper §3.1: denser sampling does not
  substantially change the PE);
* point-weighted overlap vs plain area overlap.
"""

import numpy as np
from conftest import emit_bench, run_once

from repro.core.conformance import conformance, conformance_post_translation
from repro.core.envelope import EnvelopeConfig, build_envelope
from repro.core.geometry import convex_intersection, polygon_area
from repro.core.sampling import SamplingConfig
from repro.harness import reporting, scenarios
from repro.harness.config import ExperimentConfig
from repro.harness.conformance import gather_trials, reference_trials
from repro.harness.runner import Impl, reference_impl


def test_ablation_clustering_and_outliers(benchmark, bench_config, bench_executor, save_artifact):
    condition = scenarios.shallow_buffer()

    def run():
        rows = []
        for stack in ("quicgo", "quiche", "neqo"):
            test = gather_trials(
                Impl(stack, "cubic"), reference_impl("cubic"), condition,
                bench_config, executor=bench_executor,
            )
            ref = reference_trials("cubic", condition, bench_config, executor=bench_executor)
            clustered = conformance(
                build_envelope(test), build_envelope(ref)
            )
            single = conformance(
                build_envelope(test, EnvelopeConfig(single_hull=True)),
                build_envelope(ref, EnvelopeConfig(single_hull=True)),
            )
            pooled_test = [np.vstack(test)]
            pooled_ref = [np.vstack(ref)]
            no_outlier_removal = conformance(
                build_envelope(pooled_test, EnvelopeConfig(k=1)),
                build_envelope(pooled_ref, EnvelopeConfig(k=1)),
            )
            rows.append([stack, round(clustered, 2), round(single, 2),
                         round(no_outlier_removal, 2)])
        return rows

    rows = run_once(benchmark, run)
    text = reporting.format_table(
        ["Stack (CUBIC)", "clustered+trials", "single hull", "pooled (no removal)"],
        rows,
        title="Ablation: PE construction choices vs measured conformance",
    )
    save_artifact("ablation_pe_construction", text)
    emit_bench(__file__, pe_construction={
        r[0]: {"clustered": r[1], "single_hull": r[2], "pooled": r[3]}
        for r in rows
    })
    by_stack = {r[0]: r for r in rows}
    # Single hull inflates the low-conformance cases.
    assert by_stack["quiche"][2] >= by_stack["quiche"][1]


def test_ablation_sampling_period(benchmark, bench_executor, save_artifact):
    """Paper §3.1: sampling more often than every 10 RTTs does not
    substantially change the PE."""
    condition = scenarios.shallow_buffer()

    def run():
        rows = []
        base_ref = None
        for rtts in (5.0, 10.0, 20.0):
            cfg = ExperimentConfig(
                duration_s=100.0, trials=3, sampling=SamplingConfig(sample_rtts=rtts)
            )
            test = gather_trials(
                Impl("quicgo", "cubic"), reference_impl("cubic"), condition,
                cfg, executor=bench_executor,
            )
            ref = reference_trials("cubic", condition, cfg, executor=bench_executor)
            value = conformance(build_envelope(test), build_envelope(ref))
            rows.append([rtts, round(value, 2)])
        return rows

    rows = run_once(benchmark, run)
    text = reporting.format_table(
        ["sampling period (RTTs)", "conformance (quicgo CUBIC)"],
        rows,
        title="Ablation: sampling-period sensitivity",
    )
    save_artifact("ablation_sampling_period", text)
    values = [r[1] for r in rows]
    assert max(values) - min(values) < 0.45


def test_ablation_area_vs_point_overlap(benchmark, bench_config, bench_executor, save_artifact):
    """Area-based overlap ignores point density; the paper weighs overlap
    by points for exactly that reason."""
    condition = scenarios.shallow_buffer()

    def run():
        test = gather_trials(
            Impl("quiche", "cubic"), reference_impl("cubic"), condition,
            bench_config, executor=bench_executor,
        )
        ref = reference_trials("cubic", condition, bench_config, executor=bench_executor)
        t_pe = build_envelope(test, EnvelopeConfig(single_hull=True))
        r_pe = build_envelope(ref, EnvelopeConfig(single_hull=True))
        point_based = conformance(t_pe, r_pe)
        inter = convex_intersection(t_pe.hulls[0], r_pe.hulls[0]) if t_pe.hulls and r_pe.hulls else []
        union_area = (
            polygon_area(t_pe.hulls[0]) + polygon_area(r_pe.hulls[0]) - polygon_area(inter)
            if t_pe.hulls and r_pe.hulls
            else 0.0
        )
        area_based = polygon_area(inter) / union_area if union_area > 0 else 0.0
        return point_based, area_based

    point_based, area_based = run_once(benchmark, run)
    text = (
        "Ablation: overlap weighting for quiche CUBIC (single hulls)\n"
        f"  point-weighted overlap: {point_based:.2f}\n"
        f"  plain area IoU:        {area_based:.2f}"
    )
    save_artifact("ablation_overlap_weighting", text)
    assert 0.0 <= area_based <= 1.0
