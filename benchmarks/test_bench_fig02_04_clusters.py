"""Figures 2-4: natural cluster structure of the CCAs' envelopes.

* Fig 2 — TCP BBR's point cloud has two natural clusters (ProbeBW vs
  ProbeRTT phases).
* Fig 3 — CUBIC and Reno form clusters around throughput levels, with no
  fixed count.
* Fig 4 — the retention curve R(k) is strictly decreasing, and the chosen
  k sits just before its steepest drop.
"""

import numpy as np
from conftest import emit_bench, run_once

from repro.core.envelope import EnvelopeConfig, build_envelope
from repro.harness import reporting, scenarios
from repro.harness.conformance import reference_trials


def _reference_envelope(cca, bench_config, bench_executor):
    condition = scenarios.shallow_buffer()
    trials = reference_trials(cca, condition, bench_config, executor=bench_executor)
    return build_envelope(trials, EnvelopeConfig())


def test_fig2_bbr_two_clusters(benchmark, bench_config, bench_executor, save_artifact):
    pe = run_once(benchmark, lambda: _reference_envelope("bbr", bench_config, bench_executor))
    plot = reporting.format_envelope_ascii(
        pe.hulls, pe.all_points,
        title=f"Fig 2: kernel BBR envelope, k={pe.k} (paper: 2 clusters, ProbeBW+ProbeRTT)",
    )
    save_artifact("fig02_bbr_clusters", plot)
    # ProbeRTT samples sit at clearly lower throughput than ProbeBW ones.
    tputs = pe.all_points[:, 1]
    assert pe.k >= 2 or (np.percentile(tputs, 5) < 0.5 * np.percentile(tputs, 95))


def test_fig3_cubic_reno_clusters(benchmark, bench_config, bench_executor, save_artifact):
    def run():
        return (
            _reference_envelope("cubic", bench_config, bench_executor),
            _reference_envelope("reno", bench_config, bench_executor),
        )

    cubic_pe, reno_pe = run_once(benchmark, run)
    text = "\n\n".join(
        reporting.format_envelope_ascii(
            pe.hulls, pe.all_points, title=f"Fig 3: kernel {name} envelope, k={pe.k}"
        )
        for name, pe in (("CUBIC", cubic_pe), ("Reno", reno_pe))
    )
    save_artifact("fig03_cubic_reno_clusters", text)
    assert cubic_pe.k >= 1 and reno_pe.k >= 1
    assert cubic_pe.retained_fraction() > 0.5
    assert reno_pe.retained_fraction() > 0.5


def test_fig4_retention_curve(benchmark, bench_config, bench_executor, save_artifact):
    pe = run_once(benchmark, lambda: _reference_envelope("cubic", bench_config, bench_executor))
    curve = pe.retention_curve
    assert curve is not None
    rows = [[k + 1, round(float(r), 3)] for k, r in enumerate(curve)]
    text = reporting.format_table(
        ["k", "R(k) = IOU"],
        rows,
        title=f"Fig 4: information retained vs cluster count (chosen k={pe.k})",
    )
    save_artifact("fig04_k_selection", text)
    emit_bench(__file__, chosen_k=pe.k,
               retention_curve=[round(float(r), 3) for r in curve])
    # R is (weakly) decreasing in k.
    assert all(a >= b - 0.05 for a, b in zip(curve, curve[1:]))
    # The chosen k retains most points; k+1 retains fewer.
    assert curve[pe.k - 1] >= curve[-1]
