"""repro.exec: parallel campaigns reproduce serial numbers bit-for-bit.

Runs the same cold-cache conformance heatmap twice — once through
``Executor(jobs=1)``, once through ``Executor(jobs=4)`` — asserts every cell is numerically
identical, and records both wall-clocks plus the executor telemetry.

The wall-clocks are reported, not asserted: on a single-core box the
``spawn`` start-up cost dominates and the pool is *slower*; the payoff
appears only with real cores.  The correctness claim (determinism under
parallelism) is what this benchmark pins down.
"""

import time

from conftest import emit_bench, run_once

from repro.exec import Executor
from repro.harness import scenarios
from repro.harness.cache import ResultCache
from repro.harness.config import ExperimentConfig
from repro.harness.conformance import conformance_heatmap

#: Deliberately small: both runs start from a cold cache, so the full
#: simulation cost is paid twice.
EXEC_CONFIG = ExperimentConfig(duration_s=8.0, trials=2)
STACKS = ("quiche", "mvfst", "chromium")
CCAS = ("cubic",)
CONDITION = scenarios.shallow_buffer()


def test_exec_parallel_matches_serial(benchmark, save_artifact):
    t0 = time.perf_counter()
    serial = conformance_heatmap(
        CONDITION, EXEC_CONFIG, ccas=CCAS, stacks=STACKS,
        executor=Executor(cache=ResultCache()),
    )
    serial_wall = time.perf_counter() - t0

    executor = Executor(jobs=4, cache=ResultCache())

    def run_parallel():
        return conformance_heatmap(
            CONDITION, EXEC_CONFIG, ccas=CCAS, stacks=STACKS, executor=executor
        )

    t0 = time.perf_counter()
    parallel = run_once(benchmark, run_parallel)
    parallel_wall = time.perf_counter() - t0

    assert set(serial) == set(parallel)
    for key in serial:
        a, b = serial[key].result, parallel[key].result
        assert a.conformance == b.conformance, f"{key} diverged"
        assert a.conformance_t == b.conformance_t, f"{key} diverged"
        assert a.delta_throughput_mbps == b.delta_throughput_mbps

    lines = [
        "repro.exec determinism benchmark (cold cache, "
        f"{len(serial)} cells x {EXEC_CONFIG.trials} trials, "
        f"{EXEC_CONFIG.duration_s:g}s flows)",
        f"serial wall:   {serial_wall:.2f}s",
        f"parallel wall: {parallel_wall:.2f}s (jobs=4, mode={executor.last_mode})",
        executor.telemetry.summary(),
        "all heatmap cells numerically identical: yes",
    ]
    save_artifact("exec_parallel", "\n".join(lines))
    emit_bench(
        __file__,
        cells=len(serial),
        serial_wall_s=round(serial_wall, 3),
        parallel_wall_s=round(parallel_wall, 3),
        exec_mode=executor.last_mode,
    )
