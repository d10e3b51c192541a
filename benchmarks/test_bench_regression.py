"""§6 "Keeping up with the kernel": conformance across kernel milestones.

Regression-tests representative implementations against two kernel
flavours: the paper's 5.13 reference and a pre-HyStart CUBIC.  The
interesting row is xquic CUBIC, whose verdict depends on the milestone —
it is conformant to the HyStart-less kernel (Table 4's verification) —
which is exactly the phenomenon §6 says demands per-milestone testing.
"""

from conftest import emit_bench, run_once

from repro.harness import reporting, scenarios
from repro.harness.regression import MILESTONES, flipped_verdicts, regression_matrix

IMPLEMENTATIONS = [
    ("quicgo", "cubic"),
    ("msquic", "cubic"),
    ("xquic", "cubic"),
    ("quiche", "cubic"),
]


def test_kernel_milestone_regression(benchmark, bench_config, bench_executor, save_artifact):
    condition = scenarios.shallow_buffer()

    def run():
        return regression_matrix(
            milestones=MILESTONES,
            implementations=IMPLEMENTATIONS,
            condition=condition,
            config=bench_config,
            executor=bench_executor,
        )

    rows_data = run_once(benchmark, run)
    names = [m.name for m in MILESTONES]
    rows = [
        [r.stack, r.cca]
        + [round(r.conformance[n], 2) for n in names]
        + ["FLIPS" if r.verdict_flips else ""]
        for r in rows_data
    ]
    text = reporting.format_table(
        ["Stack", "CCA"] + names + ["verdict"],
        rows,
        title="Conformance across kernel milestones "
        "(§6 'Keeping up with the kernel')",
    )
    save_artifact("regression_kernel_milestones", text)
    emit_bench(__file__, implementations=len(rows_data), verdict_flips=sum(
        1 for r in rows_data if r.verdict_flips
    ))

    by_key = {(r.stack, r.cca): r for r in rows_data}
    xquic = by_key[("xquic", "cubic")]
    # Table 4: xquic CUBIC conforms better to the HyStart-less kernel.
    assert xquic.conformance["pre-hystart"] >= xquic.conformance["5.13-stock"] - 0.05
    # Conformant stacks stay conformant under both milestones.
    assert min(by_key[("quicgo", "cubic")].conformance.values()) > 0.4
