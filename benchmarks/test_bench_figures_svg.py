"""Render the headline figures as SVG files.

Produces viewable counterparts of the paper's key plots from the same
cached measurements the other benchmarks use:

* ``fig06b_heatmap.svg`` — the 1-BDP conformance heatmap,
* ``fig09_mvfst_envelope.svg`` / ``fig15_quiche_envelope.svg`` — test vs
  reference envelope overlays,
* ``fig05_sweep.svg`` — the cwnd-gain sweep curves.
"""

import numpy as np
from conftest import OUTPUT_DIR, emit_bench, run_once

from repro.analysis.sweeps import cwnd_gain_sweep
from repro.harness import scenarios
from repro.harness.conformance import conformance_heatmap, measure_conformance
from repro.stacks import registry
from repro.viz.charts import envelope_figure, heatmap_figure, line_figure


def test_svg_figures(benchmark, bench_config, bench_executor, save_artifact):
    condition = scenarios.shallow_buffer()
    OUTPUT_DIR.mkdir(exist_ok=True)

    def run():
        heat = conformance_heatmap(condition, bench_config, executor=bench_executor)
        quiche = measure_conformance("quiche", "cubic", condition, bench_config, executor=bench_executor)
        mvfst = measure_conformance("mvfst", "bbr", condition, bench_config, executor=bench_executor)
        sweep = cwnd_gain_sweep(config=bench_config, executor=bench_executor)
        return heat, quiche, mvfst, sweep

    heat, quiche, mvfst, sweep = run_once(benchmark, run)

    stacks = [p.name for p in registry.quic_stacks()]
    grid = np.full((len(stacks), len(registry.CCAS)), np.nan)
    for (stack, cca), m in heat.items():
        grid[stacks.index(stack), registry.CCAS.index(cca)] = m.conformance
    heatmap_figure(
        stacks, list(registry.CCAS), grid,
        title="Fig 6b: conformance at 1 BDP (10 ms RTT, 20 Mbps)",
    ).save(str(OUTPUT_DIR / "fig06b_heatmap.svg"))

    envelope_figure(
        {
            "quiche CUBIC": quiche.result.test_envelope,
            "kernel CUBIC": quiche.result.reference_envelope,
        },
        title=f"Fig 15-style: quiche CUBIC vs reference (Conf={quiche.conformance:.2f})",
    ).save(str(OUTPUT_DIR / "fig15_quiche_envelope.svg"))

    envelope_figure(
        {
            "mvfst BBR": mvfst.result.test_envelope,
            "kernel BBR": mvfst.result.reference_envelope,
        },
        title=f"Fig 9-style: mvfst BBR vs reference (Conf={mvfst.conformance:.2f})",
    ).save(str(OUTPUT_DIR / "fig09_mvfst_envelope.svg"))

    line_figure(
        {
            "Conformance": [(p.cwnd_gain, p.conformance) for p in sweep],
            "Conformance-T": [(p.cwnd_gain, p.conformance_t) for p in sweep],
        },
        title="Fig 5: modified kernel BBR vs vanilla",
        x_label="cwnd gain",
        y_label="conformance",
        y_range=(0.0, 1.0),
    ).save(str(OUTPUT_DIR / "fig05_sweep.svg"))

    save_artifact(
        "svg_figures",
        "rendered: fig06b_heatmap.svg, fig09_mvfst_envelope.svg, "
        "fig15_quiche_envelope.svg, fig05_sweep.svg",
    )
    emit_bench(__file__, figures=4, heatmap_cells=len(heat))
    for name in (
        "fig06b_heatmap.svg",
        "fig09_mvfst_envelope.svg",
        "fig15_quiche_envelope.svg",
        "fig05_sweep.svg",
    ):
        assert (OUTPUT_DIR / name).stat().st_size > 1000
