"""Table 3: the low-conformance implementations at 1 BDP.

Prints Conf-old / Conf / Conf-T / Δ-tput / Δ-delay for the seven paper
rows next to the paper's own values.  Shapes that must reproduce: which
implementations are low-conformance, Conformance-T far above Conformance,
and the sign of the Δ offsets.
"""

from conftest import emit_bench, run_once

from repro.harness import reporting, scenarios
from repro.harness.conformance import measure_conformance

#: (stack, cca) -> paper's (conf_old, conf, conf_t, dtput, ddelay).
PAPER_ROWS = {
    ("chromium", "cubic"): (0.65, 0.60, 0.74, +3.0, 0.0),
    ("neqo", "cubic"): (0.00, 0.00, 0.62, -6.0, -5.0),
    ("quiche", "cubic"): (0.48, 0.08, 0.55, +5.5, 0.0),
    ("xquic", "cubic"): (0.60, 0.55, 0.64, 0.0, -5.0),
    ("mvfst", "bbr"): (0.00, 0.00, 0.70, +9.0, 0.0),
    ("xquic", "bbr"): (0.37, 0.15, 0.42, +4.0, 0.0),
    ("xquic", "reno"): (0.43, 0.38, 0.81, -4.0, -3.0),
}


def test_table3(benchmark, bench_config, bench_executor, save_artifact):
    condition = scenarios.shallow_buffer()

    def run():
        return {
            key: measure_conformance(key[0], key[1], condition, bench_config, executor=bench_executor)
            for key in PAPER_ROWS
        }

    measurements = run_once(benchmark, run)

    rows = []
    for key, paper in PAPER_ROWS.items():
        m = measurements[key]
        r = m.result
        rows.append(
            [
                key[0], key[1],
                round(r.conformance_legacy, 2), round(r.conformance, 2),
                round(r.conformance_t, 2),
                f"{r.delta_throughput_mbps:+.1f}", f"{r.delta_delay_ms:+.1f}",
                paper[0], paper[1], paper[2], f"{paper[3]:+.1f}", f"{paper[4]:+.1f}",
            ]
        )
    text = reporting.format_table(
        ["Stack", "Type", "Conf-old", "Conf", "Conf-T", "d-tput", "d-delay",
         "p:old", "p:Conf", "p:Conf-T", "p:d-tput", "p:d-delay"],
        rows,
        title="Table 3: low-conformance implementations at 1 BDP "
        "(measured vs paper 'p:' columns)",
    )
    save_artifact("table3_low_conformance", text)
    emit_bench(__file__, conformance={
        f"{stack}-{cca}": round(
            measurements[(stack, cca)].result.conformance, 3
        )
        for stack, cca in PAPER_ROWS
    })

    for key, m in measurements.items():
        r = m.result
        # Conformance-T must indicate fixability by translation.
        assert r.conformance_t >= r.conformance - 1e-9
        paper = PAPER_ROWS[key]
        # Sign of the throughput offset is the paper's root-cause hint.
        if abs(paper[3]) >= 3.0:
            assert r.delta_throughput_mbps * paper[3] > 0, (
                f"{key}: Δ-tput sign should match paper "
                f"({r.delta_throughput_mbps:+.1f} vs {paper[3]:+.1f})"
            )
    # The aggressive implementations are the aggressive ones in the paper.
    assert measurements[("quiche", "cubic")].result.delta_throughput_mbps > 2
    assert measurements[("mvfst", "bbr")].result.delta_throughput_mbps > 4
