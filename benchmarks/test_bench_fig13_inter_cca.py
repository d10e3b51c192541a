"""Figure 13: CUBIC x BBR interactions in shallow and deep buffers.

Expected textbook behaviour: BBR wins shallow buffers (Fig 13a "all red"),
CUBIC wins deep buffers (Fig 13b "all blue").  The paper shows the
low-conformance implementations subverting this: xquic CUBIC beats BBRs
in shallow buffers; xquic/mvfst BBR beat CUBICs in deep buffers.

To bound wall time the CUBIC axis uses a representative subset (kernel +
the low-conformance CUBICs + two conformant ones); the harness accepts
any subset.
"""

from conftest import emit_bench, run_once

from repro.harness import reporting, scenarios
from repro.harness.fairness import inter_cca_matrix

BBR_STACKS = ["linux", "mvfst", "chromium", "lsquic", "xquic"]
CUBIC_STACKS = ["linux", "chromium", "msquic", "quiche", "quicgo", "xquic"]


def test_fig13_inter_cca_matrices(
    benchmark, share_config, bench_executor, save_artifact
):
    def run():
        out = {}
        for name, condition in (
            ("shallow", scenarios.inter_cca_shallow()),
            ("deep", scenarios.inter_cca_deep()),
        ):
            out[name] = inter_cca_matrix(
                "bbr",
                "cubic",
                condition,
                share_config,
                row_stacks=BBR_STACKS,
                col_stacks=CUBIC_STACKS,
                executor=bench_executor,
            )
        return out

    matrices = run_once(benchmark, run)

    sections = []
    for name, matrix in matrices.items():
        sections.append(
            reporting.format_heatmap(
                matrix.rows,
                matrix.cols,
                matrix.shares,
                title=f"Fig 13 ({name}): BBR row share vs CUBIC column "
                "(1=BBR starves CUBIC)",
            )
        )
    save_artifact("fig13_inter_cca", "\n\n".join(sections))

    shallow, deep = matrices["shallow"], matrices["deep"]
    emit_bench(__file__, kernel_bbr_vs_kernel_cubic={
        "shallow": round(shallow.share("linux-bbr", "linux-cubic"), 3),
        "deep": round(deep.share("linux-bbr", "linux-cubic"), 3),
    })
    # Textbook: kernel BBR beats kernel CUBIC in shallow buffers...
    assert shallow.share("linux-bbr", "linux-cubic") > 0.6
    # ...and loses in deep buffers.
    assert deep.share("linux-bbr", "linux-cubic") < 0.5
    # Subversion: mvfst BBR beats kernel CUBIC in the deep buffer where a
    # conformant BBR loses (paper Fig 13b).
    assert deep.share("mvfst-bbr", "linux-cubic") > deep.share(
        "linux-bbr", "linux-cubic"
    )
    # The paper's other subversion — xquic CUBIC resisting BBR in shallow
    # buffers — reproduces only partially here (see EXPERIMENTS.md "Known
    # fidelity gaps"); report it without asserting.
    delta = shallow.share("linux-bbr", "xquic-cubic") - shallow.share(
        "linux-bbr", "linux-cubic"
    )
    print(f"xquic-CUBIC shallow resistance vs kernel CUBIC: {delta:+.2f} "
          "(paper: negative)")
