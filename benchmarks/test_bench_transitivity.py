"""§6 "Transitivity": intra-CCA beats-relations are transitive, inter-CCA
relations need not be.

Uses the deep-buffer interaction setting of the paper's counterexample
(lsquic CUBIC > msquic CUBIC > chromium BBR, but lsquic CUBIC does not
beat chromium BBR in deep buffers).
"""

from conftest import emit_bench, run_once

from repro.analysis.transitivity import analyze
from repro.harness import reporting, scenarios
from repro.harness.runner import Impl

INTRA = [Impl(s, "cubic") for s in ("linux", "lsquic", "msquic", "quicgo", "quiche")]
INTER = [
    Impl("lsquic", "cubic"),
    Impl("msquic", "cubic"),
    Impl("chromium", "bbr"),
    Impl("linux", "bbr"),
    Impl("xquic", "cubic"),
]


def test_transitivity(benchmark, share_config, bench_executor, save_artifact):
    def run():
        intra = analyze(INTRA, scenarios.fairness_condition(), share_config,
                        executor=bench_executor)
        inter = analyze(INTER, scenarios.inter_cca_deep(), share_config,
                        executor=bench_executor)
        return intra, inter

    intra, inter = run_once(benchmark, run)

    lines = [
        "Transitivity of the beats relation (share > 0.5):",
        f"  intra-CCA (CUBIC impls): violations = {len(intra.violations)}",
        f"  inter-CCA (CUBIC+BBR, deep buffer): violations = {len(inter.violations)}",
    ]
    for x, y, z in inter.violations[:5]:
        lines.append(f"    counterexample: {x} > {y} > {z} but not {x} > {z}")
    matrix = reporting.format_heatmap(
        [str(i) for i in inter.impls],
        [str(i) for i in inter.impls],
        inter.beats.astype(float),
        title="inter-CCA beats matrix (1 = row beats column)",
        fmt="{:.0f}",
    )
    text = "\n".join(lines) + "\n\n" + matrix
    save_artifact("transitivity", text)
    emit_bench(__file__, intra_violations=len(intra.violations),
               inter_violations=len(inter.violations))

    # Paper: intra-CCA relations are (at most weakly) intransitive
    # compared to the cross-CCA ones.
    assert len(intra.violations) <= len(inter.violations) + 1
