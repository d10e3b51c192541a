"""Figure 12: pairwise bandwidth shares for CUBIC, Reno and BBR.

Paper's reading: the low-conformance implementations (chromium, quiche
and xquic CUBIC; mvfst and xquic BBR; xquic Reno) are the unfair ones —
and lsquic CUBIC is mildly unfair despite high conformance, so high
conformance does not guarantee fairness.
"""

from conftest import emit_bench, run_once

from repro.harness import reporting, scenarios
from repro.harness.fairness import intra_cca_matrix


def test_fig12_intra_cca_share_matrices(
    benchmark, share_config, bench_executor, save_artifact
):
    condition = scenarios.fairness_condition()  # 20 Mbps, 50 ms, 1 BDP

    def run():
        return {
            cca: intra_cca_matrix(
                cca,
                condition,
                share_config,
                executor=bench_executor,
            )
            for cca in ("cubic", "reno", "bbr")
        }

    matrices = run_once(benchmark, run)

    sections = []
    for cca, matrix in matrices.items():
        sections.append(
            reporting.format_heatmap(
                matrix.rows,
                matrix.cols,
                matrix.shares,
                title=f"Fig 12: bandwidth share of row vs column — {cca} "
                "(20 Mbps, 50 ms RTT, 1 BDP)",
            )
        )
        aggressive = matrix.unfair_rows(threshold=0.55)
        sections.append(f"overly aggressive ({cca}): {aggressive or 'none'}")
    text = "\n\n".join(sections)
    save_artifact("fig12_fairness", text)
    emit_bench(__file__, quiche_vs_kernel_cubic=round(
        matrices["cubic"].share("quiche-cubic", "linux-cubic"), 3
    ), mvfst_vs_kernel_bbr=round(
        matrices["bbr"].share("mvfst-bbr", "linux-bbr"), 3
    ))

    cubic = matrices["cubic"]
    # The aggressive CUBIC implementations beat the kernel.
    assert cubic.share("quiche-cubic", "linux-cubic") > 0.55
    # The weak stack artifacts lose to the kernel.
    assert cubic.share("neqo-cubic", "linux-cubic") < 0.45
    # Conformant stacks are near-fair against the kernel.
    assert 0.3 < cubic.share("quicgo-cubic", "linux-cubic") < 0.7
    # xquic Reno undershoots (Table 3's negative d-tput).
    assert matrices["reno"].share("xquic-reno", "linux-reno") < 0.45
    # mvfst BBR starves other BBRs.
    assert matrices["bbr"].share("mvfst-bbr", "linux-bbr") > 0.6
