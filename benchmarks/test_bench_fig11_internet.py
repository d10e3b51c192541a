"""Figure 11: conformance "in the wild" (synthetic AWS-to-lab WAN).

The paper's finding: Internet conformance numbers track the 1-BDP
testbed results.  The WAN here is a 100 Mbps local limiter with a pinned
50 ms RTT plus jitter, sporadic loss and on/off cross traffic (see
repro.harness.internet for the substitution).

To bound benchmark wall time, the WAN sweep covers the CUBIC column — the
one CCA every stack implements; the harness function accepts any subset.
"""

import numpy as np
from conftest import emit_bench, run_once

from repro.harness import reporting, scenarios
from repro.harness.config import ExperimentConfig
from repro.harness.conformance import conformance_heatmap
from repro.harness.internet import internet_heatmap

WAN_CONFIG = ExperimentConfig(duration_s=40.0, trials=2)


def test_fig11_internet_conformance(
    benchmark, bench_config, bench_executor, save_artifact
):
    def run():
        return internet_heatmap(
            WAN_CONFIG, ccas=("cubic",), executor=bench_executor
        )

    wan = run_once(benchmark, run)
    testbed = conformance_heatmap(
        scenarios.shallow_buffer(),
        bench_config,
        ccas=("cubic",),
        executor=bench_executor,
    )

    rows = []
    agree = []
    for key in sorted(wan):
        w = wan[key].conformance
        t = testbed[key].conformance
        rows.append([key[0], key[1], round(w, 2), round(t, 2)])
        agree.append((w < 0.5) == (t < 0.5))
    text = reporting.format_table(
        ["Stack", "CCA", "Conf (internet)", "Conf (testbed 1BDP)"],
        rows,
        title="Fig 11: conformance over the synthetic WAN vs the 1-BDP testbed "
        "(paper: 'similar to our results for 1 BDP buffer')",
    )
    save_artifact("fig11_internet", text)
    emit_bench(__file__, stacks=len(rows),
               verdict_agreement=round(float(np.mean(agree)), 3))

    # The low/high conformance verdicts mostly agree with the testbed.
    assert np.mean(agree) >= 0.6
    # quiche's rollback stays visibly non-conformant in the wild.
    assert wan[("quiche", "cubic")].conformance < 0.65
