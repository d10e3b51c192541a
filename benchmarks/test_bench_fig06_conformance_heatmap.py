"""Figure 6: conformance of every stack x CCA in shallow and deep buffers.

Paper's headline: most implementations are conformant at 1 BDP (Fig. 6b)
with seven low-conformance outliers (Table 3), and *every* implementation
degrades at 5 BDP (Fig. 6a).
"""

import numpy as np
from conftest import emit_bench, run_once

from repro.harness import reporting, scenarios
from repro.harness.conformance import conformance_heatmap
from repro.stacks import registry


def _render(measurements, title):
    values = {key: m.conformance for key, m in measurements.items()}
    bars = reporting.format_conformance_bars(values, title=title)
    stacks = [p.name for p in registry.quic_stacks()]
    grid = np.full((len(stacks), len(registry.CCAS)), np.nan)
    for (stack, cca), m in measurements.items():
        grid[stacks.index(stack), registry.CCAS.index(cca)] = m.conformance
    heat = reporting.format_heatmap(stacks, list(registry.CCAS), grid)
    return bars + "\n\n" + heat, values


def test_fig6b_shallow_buffer(
    benchmark, bench_config, bench_executor, save_artifact
):
    condition = scenarios.shallow_buffer()

    def run():
        return conformance_heatmap(
            condition, bench_config, executor=bench_executor
        )

    measurements = run_once(benchmark, run)
    text, values = _render(
        measurements, "Fig 6b: conformance, 1 BDP (shallow) buffer, 10 ms RTT, 20 Mbps"
    )
    save_artifact("fig06b_heatmap_shallow", text)

    # Paper: the majority of stacks are conformant in shallow buffers...
    conformant = [v for v in values.values() if v >= 0.5]
    assert len(conformant) >= len(values) / 2
    # ...with the known low-conformance outliers below 0.5.
    for key in (("quiche", "cubic"), ("neqo", "cubic"), ("mvfst", "bbr")):
        assert values[key] < 0.5, f"{key} should be low-conformance"


def test_fig6a_deep_buffer(
    benchmark, bench_config, bench_executor, save_artifact
):
    shallow = conformance_heatmap(
        scenarios.shallow_buffer(),
        bench_config,
        executor=bench_executor,
    )

    def run():
        return conformance_heatmap(
            scenarios.deep_buffer(),
            bench_config,
            executor=bench_executor,
        )

    deep = run_once(benchmark, run)
    text, deep_values = _render(
        deep, "Fig 6a: conformance, 5 BDP (deep) buffer, 10 ms RTT, 20 Mbps"
    )
    save_artifact("fig06a_heatmap_deep", text)

    shallow_values = {k: m.conformance for k, m in shallow.items()}
    mean_shallow = np.mean(list(shallow_values.values()))
    mean_deep = np.mean(list(deep_values.values()))
    summary = (
        f"mean conformance shallow={mean_shallow:.2f} deep={mean_deep:.2f}\n"
        "(paper: conformance becomes significantly worse in deep buffers; "
        "the universal degradation reproduces only partially here — see "
        "EXPERIMENTS.md 'Known fidelity gaps')"
    )
    save_artifact("fig06_summary", summary)
    emit_bench(__file__, mean_shallow=round(float(mean_shallow), 3),
               mean_deep=round(float(mean_deep), 3), cells=len(deep_values))
    # The per-implementation deep-buffer claims the paper makes explicitly:
    # xquic BBR's lack of conformance "became worse in deep buffers"
    # (Fig 10)...
    assert deep_values[("xquic", "bbr")] < shallow_values[("xquic", "bbr")] + 0.05
    # ...while "conformance for mvfst was better for deep buffers" (Fig 9).
    assert deep_values[("mvfst", "bbr")] > shallow_values[("mvfst", "bbr")] - 0.05
    # Reno stays comparatively conformant in deep buffers (§4.1.3).
    reno_deep = [v for (s, c), v in deep_values.items() if c == "reno" and s not in ("neqo", "xquic")]
    assert np.mean(reno_deep) > 0.5
