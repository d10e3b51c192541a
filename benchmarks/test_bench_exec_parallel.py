"""repro.exec: parallel campaigns reproduce serial numbers bit-for-bit.

Runs the same cold-cache conformance heatmap three times — once through
``Executor(jobs=1)``, then twice through one ``Executor(jobs=4)`` —
asserts every cell is numerically identical, and records the
wall-clocks plus the executor telemetry.

The wall-clocks are reported, not asserted.  On a 2-core host the first
``jobs=4`` run (4.3 s) is slower than serial (2.9 s): its four fresh
``spawn`` workers each pay about a second of imports before their first
trial.  The second run reuses those warm workers and takes 2.1 s, under
serial.  What is asserted is determinism under parallelism, and that
the two pool runs together start exactly four workers
(``worker_spawns``), a count that does not depend on the host.
"""

import time

from conftest import emit_bench, run_once

from repro.exec import Executor, close_pools
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

    close_pools()  # the first pool run below starts its workers cold
    executor = Executor(jobs=4, cache=ResultCache())

    def run_parallel():
        return conformance_heatmap(
            CONDITION, EXEC_CONFIG, ccas=CCAS, stacks=STACKS, executor=executor
        )

    t0 = time.perf_counter()
    parallel = run_once(benchmark, run_parallel)
    parallel_wall = time.perf_counter() - t0

    # The same heatmap again on the same executor: a fresh cache so every
    # trial runs again, now on the warm pool the first run left behind.
    executor.cache = ResultCache()
    t0 = time.perf_counter()
    warm = run_parallel()
    warm_wall = time.perf_counter() - t0
    close_pools()

    for run in (parallel, warm):
        assert set(serial) == set(run)
        for key in serial:
            a, b = serial[key].result, run[key].result
            assert a.conformance == b.conformance, f"{key} diverged"
            assert a.conformance_t == b.conformance_t, f"{key} diverged"
            assert a.delta_throughput_mbps == b.delta_throughput_mbps
    spawns = executor.telemetry.worker_spawns
    assert spawns == 4, f"{spawns} worker spawns over two jobs=4 runs"

    lines = [
        "repro.exec determinism benchmark (cold cache, "
        f"{len(serial)} cells x {EXEC_CONFIG.trials} trials, "
        f"{EXEC_CONFIG.duration_s:g}s flows)",
        f"serial wall:        {serial_wall:.2f}s",
        f"parallel wall:      {parallel_wall:.2f}s "
        f"(jobs=4, mode={executor.last_mode}, workers started)",
        f"warm parallel wall: {warm_wall:.2f}s (same executor, warm pool)",
        f"worker spawns over both parallel runs: {spawns}",
        executor.telemetry.summary(),
        "all heatmap cells numerically identical: yes",
    ]
    save_artifact("exec_parallel", "\n".join(lines))
    emit_bench(
        __file__,
        cells=len(serial),
        serial_wall_s=round(serial_wall, 3),
        parallel_wall_s=round(parallel_wall, 3),
        warm_parallel_wall_s=round(warm_wall, 3),
        worker_spawns=spawns,
        exec_mode=executor.last_mode,
    )
