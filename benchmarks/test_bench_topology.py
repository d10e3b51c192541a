"""repro.topo: multi-bottleneck simulation cost.

Runs the parking-lot shape (three bottleneck hops, one long flow plus a
cross flow per hop) for a fixed simulated horizon and emits
``output/BENCH_topology.json``.  Heap pushes are counted by wrapping
:meth:`EventLoop.schedule_at`, as in ``test_bench_netsim.py``, so
``events_per_packet`` depends only on the code and the seed: it is the
host-speed-free CI guard on the routed path.  ``packets_per_s`` is
recorded for information.  Functional guarantees (bit-identity with the
dumbbell, byte conservation) live in tier-1 tests.
"""

import time

from conftest import emit_bench, run_once

from repro.netsim.engine import EventLoop
from repro.topo import TopoNetwork, parking_lot

SIM_S = 10.0


def test_parking_lot_throughput(benchmark, monkeypatch):
    spec = parking_lot("cubic")
    pushes = [0]
    schedule_at = EventLoop.schedule_at

    def counting(self, *args, **kwargs):
        pushes[0] += 1
        return schedule_at(self, *args, **kwargs)

    monkeypatch.setattr(EventLoop, "schedule_at", counting)

    def run():
        start = time.perf_counter()
        results = TopoNetwork(spec, seed=0).run(SIM_S)
        wall_s = time.perf_counter() - start
        packets = sum(len(r.trace.records) for r in results)
        return packets, wall_s

    packets, wall_s = run_once(benchmark, run)
    assert packets > 0
    emit_bench(
        __file__,
        topology=spec.name,
        links=len(spec.links),
        flows=len(spec.flows),
        sim_s=SIM_S,
        packets=packets,
        heap_pushes=pushes[0],
        events_per_packet=round(pushes[0] / packets, 4),
        sim_wall_s=round(wall_s, 4),
        packets_per_s=round(packets / wall_s, 1),
    )
