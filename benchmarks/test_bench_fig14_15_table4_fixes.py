"""Table 4 and Figures 14-15: fixing the low-conformance implementations.

Re-measures every fix of Table 4 (before/after) plus the xquic CUBIC
root-cause verification against kernel CUBIC without HyStart, and renders
the quiche CUBIC cwnd time series of Fig. 15 (rollback keeps the window
from ever backing off).
"""

import numpy as np
from conftest import emit_bench, run_once

from repro.analysis.fixes import FIXES, cwnd_time_series, evaluate_all_fixes
from repro.harness import reporting, scenarios


def test_table4_fixes(benchmark, bench_config, bench_executor, save_artifact):
    condition = scenarios.shallow_buffer()

    def run():
        return evaluate_all_fixes(condition, bench_config, executor=bench_executor)

    outcomes = run_once(benchmark, run)

    rows = []
    for outcome in outcomes:
        r = outcome.row()
        rows.append(
            [
                r["stack"], r["cca"],
                r["conf_before"], r["conf_t_before"],
                f"{r['dtput_before']:+.1f}", f"{r['ddelay_before']:+.1f}",
                r.get("conf_after", "-"), r.get("conf_t_after", "-"),
                r["loc"] if r["loc"] is not None else "-",
                r["remark"],
            ]
        )
    text = reporting.format_table(
        ["Stack", "Type", "Conf", "Conf-T", "d-tput", "d-delay",
         "Conf'", "Conf-T'", "LoC", "Remark"],
        rows,
        title="Table 4: modifications to low-conformant implementations "
        "(primed columns = after the fix / verification reference)",
    )
    save_artifact("table4_fixes", text)
    emit_bench(__file__, fixes=len(outcomes), improved=sum(
        1 for o in outcomes
        if o.after is not None
        and o.after.conformance > o.before.conformance
    ))

    by_key = {(o.case.stack, o.case.cca): o for o in outcomes}
    # Each applied fix improves conformance (paper Table 4 / Figs 14-15).
    for key in (("mvfst", "bbr"), ("xquic", "bbr"), ("quiche", "cubic"), ("chromium", "cubic")):
        outcome = by_key[key]
        assert outcome.after is not None
        assert outcome.after.conformance > outcome.before.conformance, key
    # xquic CUBIC: conformance against HyStart-less kernel CUBIC is higher
    # than against the stock kernel (the "missing mechanism" verification).
    xquic = by_key[("xquic", "cubic")]
    assert xquic.after is not None
    assert xquic.after.conformance >= xquic.before.conformance - 0.05


def test_fig15_quiche_cwnd_time_series(benchmark, save_artifact):
    condition = scenarios.shallow_buffer()

    def run():
        broken = cwnd_time_series("quiche", "cubic", "default", condition, duration_s=30.0)
        fixed = cwnd_time_series("quiche", "cubic", "fixed", condition, duration_s=30.0)
        return broken, fixed

    broken, fixed = run_once(benchmark, run)

    def backoff_count(series):
        cwnd = series[:, 1]
        drops = np.sum((cwnd[1:] - cwnd[:-1]) < -0.2 * cwnd[:-1])
        return int(drops)

    text = (
        "Fig 15: quiche CUBIC congestion-window behaviour (30 s vs kernel CUBIC)\n"
        f"  rollback enabled : mean cwnd {broken[:,1].mean()/1448:6.1f} pkts, "
        f"sustained backoffs {backoff_count(broken)}\n"
        f"  rollback disabled: mean cwnd {fixed[:,1].mean()/1448:6.1f} pkts, "
        f"sustained backoffs {backoff_count(fixed)}\n"
        "  -> with RFC8312bis rollback the multiplicative decreases are "
        "undone, keeping the window inflated (paper Fig 15a vs 15b)"
    )
    save_artifact("fig15_quiche_cwnd", text)
    assert broken[:, 1].mean() > fixed[:, 1].mean()
