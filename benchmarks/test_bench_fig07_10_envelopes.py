"""Figures 7-10: envelopes of the non-conformant implementations across
buffer depths (0.5, 1, 3, 5 BDP).

* Fig 7 — non-compliant CUBIC impls (neqo, quiche, xquic)
* Fig 8 — xquic Reno
* Fig 9 — mvfst BBR (paper: Conf ~0 at every depth, Conf-T ~0.7)
* Fig 10 — xquic BBR (paper: worse in deep buffers)
"""

from conftest import emit_bench, run_once

from repro.harness import reporting, scenarios
from repro.harness.conformance import measure_conformance

IMPLS = [
    ("fig07", "neqo", "cubic"),
    ("fig07", "quiche", "cubic"),
    ("fig07", "xquic", "cubic"),
    ("fig08", "xquic", "reno"),
    ("fig09", "mvfst", "bbr"),
    ("fig10", "xquic", "bbr"),
]

BUFFERS = (0.5, 1.0, 3.0, 5.0)


def test_fig7_to_10_buffer_sweep(benchmark, bench_config, bench_executor, save_artifact):
    def run():
        results = {}
        for fig, stack, cca in IMPLS:
            for condition in scenarios.buffer_sweep():
                results[(fig, stack, cca, condition.buffer_bdp)] = measure_conformance(
                    stack, cca, condition, bench_config, executor=bench_executor
                )
        return results

    results = run_once(benchmark, run)

    rows = []
    for (fig, stack, cca, buf), m in sorted(results.items()):
        r = m.result
        rows.append(
            [fig, stack, cca, buf, round(r.conformance, 2), round(r.conformance_t, 2),
             f"{r.delta_throughput_mbps:+.1f}", f"{r.delta_delay_ms:+.1f}"]
        )
    text = reporting.format_table(
        ["Figure", "Stack", "CCA", "Buffer (BDP)", "Conf", "Conf-T", "d-tput", "d-delay"],
        rows,
        title="Figs 7-10: non-conformant implementations across buffer depths",
    )
    save_artifact("fig07_10_envelopes", text)
    emit_bench(__file__, cells=len(results), low_conformance_cells=sum(
        1 for m in results.values() if m.conformance < 0.5
    ))

    # Fig 9: mvfst BBR shows high Conf-T at every buffer depth.
    for buf in BUFFERS:
        m = results[("fig09", "mvfst", "bbr", buf)]
        assert m.conformance_t >= m.conformance
    # mvfst BBR is non-conformant at 1 BDP with a positive pacing offset.
    m1 = results[("fig09", "mvfst", "bbr", 1.0)]
    assert m1.conformance < 0.5
    assert m1.result.delta_throughput_mbps > 0
    # quiche CUBIC low conformance at 1 BDP.
    assert results[("fig07", "quiche", "cubic", 1.0)].conformance < 0.5
