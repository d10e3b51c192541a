"""Figure 5: Conformance vs Conformance-T for modified kernel BBR.

The paper's validation of Conformance-T: sweeping BBR's cwnd gain away
from the default 2.0 collapses Conformance while Conformance-T stays
high, and the translation components grow with the gain.
"""

from conftest import emit_bench, run_once

from repro.analysis.sweeps import cwnd_gain_sweep
from repro.harness import reporting

GAINS = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)


def test_fig5_cwnd_gain_sweep(
    benchmark, bench_config, bench_executor, save_artifact
):
    points = run_once(
        benchmark,
        lambda: cwnd_gain_sweep(
            gains=GAINS,
            config=bench_config,
            executor=bench_executor,
        ),
    )
    rows = [
        [p.cwnd_gain, round(p.conformance, 2), round(p.conformance_t, 2),
         f"{p.delta_throughput_mbps:+.1f}", f"{p.delta_delay_ms:+.1f}"]
        for p in points
    ]
    text = reporting.format_table(
        ["cwnd_gain", "Conf", "Conf-T", "d-tput (Mbps)", "d-delay (ms)"],
        rows,
        title="Fig 5: modified kernel BBR vs vanilla (paper: Conf peaks at "
        "gain 2.0, Conf-T stays high)",
    )
    save_artifact("fig05_cwndgain_sweep", text)
    emit_bench(__file__, conformance={
        str(p.cwnd_gain): round(p.conformance, 3) for p in points
    }, conformance_t={
        str(p.cwnd_gain): round(p.conformance_t, 3) for p in points
    })

    by_gain = {p.cwnd_gain: p for p in points}
    default = by_gain[2.0]
    # Conformance peaks at the default gain.
    assert default.conformance >= max(
        by_gain[1.0].conformance, by_gain[4.0].conformance
    )
    # Far-off gains: Conf-T stays clearly above Conf (translated envelope).
    assert by_gain[4.0].conformance_t > by_gain[4.0].conformance + 0.1
    # A cwnd knob moves throughput upward as the gain grows.
    assert by_gain[4.0].delta_throughput_mbps > by_gain[2.0].delta_throughput_mbps
