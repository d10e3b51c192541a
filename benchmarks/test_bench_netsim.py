"""Simulator core cost: heap pushes and Python calls per delivered
packet, and packets/s.

Runs one fixed two-flow trial (quiche CUBIC vs kernel CUBIC, 10 Mbps,
20 ms, 3 BDP, 8 s) and emits ``output/BENCH_netsim.json``.  Heap pushes
are counted by wrapping :meth:`EventLoop.schedule_at`, the one path
every push takes.  A separate, untimed run of the same trial under
``cProfile`` counts every Python and builtin call, after a short earlier
run has warmed the imports.  Both ``events_per_packet`` and
``calls_per_packet`` therefore depend only on the code and the seed,
never on the host: they are the CI guards.  ``packets_per_s`` is
recorded for information; CI floors it only far below any real host.
"""

import cProfile
import pstats
import time

from repro.harness.config import NetworkCondition
from repro.harness.runner import Impl, run_pair
from repro.netsim.engine import EventLoop

from conftest import OUTPUT_DIR, emit_bench, run_once

CONDITION = NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=3)
DURATION_S = 8.0
SEED = 7


def _trial(duration_s=DURATION_S):
    return run_pair(
        Impl("quiche", "cubic"), Impl("linux", "cubic"), CONDITION,
        duration_s=duration_s, seed=SEED,
    )


def _delivered(result) -> int:
    return len(result.first.trace.records) + len(result.second.trace.records)


def test_bench_netsim_events_per_packet(benchmark, monkeypatch):
    OUTPUT_DIR.mkdir(exist_ok=True)
    pushes = [0]
    schedule_at = EventLoop.schedule_at

    def counting(self, *args, **kwargs):
        pushes[0] += 1
        return schedule_at(self, *args, **kwargs)

    monkeypatch.setattr(EventLoop, "schedule_at", counting)

    def trial():
        t0 = time.perf_counter()
        result = _trial()
        return result, time.perf_counter() - t0

    result, wall_s = run_once(benchmark, trial)
    packets = _delivered(result)
    assert packets > 0
    emit_bench(
        __file__,
        packets=packets,
        heap_pushes=pushes[0],
        events_per_packet=round(pushes[0] / packets, 4),
        sim_s=round(wall_s, 4),
        packets_per_s=round(packets / wall_s, 1),
    )
    print(
        f"\nnetsim bench: {packets} packets, {pushes[0]} heap pushes "
        f"({pushes[0] / packets:.3f}/packet), {packets / wall_s:.0f} packets/s"
    )


def test_bench_netsim_calls_per_packet(benchmark):
    _trial(duration_s=0.5)  # warm imports and lazy registries

    def profiled():
        profile = cProfile.Profile()
        profile.enable()
        result = _trial()
        profile.disable()
        return result, pstats.Stats(profile).total_calls

    result, calls = run_once(benchmark, profiled)
    packets = _delivered(result)
    emit_bench(__file__, calls=calls, calls_per_packet=round(calls / packets, 2))
    print(f"\nnetsim bench: {calls} profiled calls ({calls / packets:.2f}/packet)")
