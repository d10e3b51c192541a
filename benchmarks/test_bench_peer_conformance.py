"""repro.ccax: reference-free peer-conformance campaign throughput.

Runs a three-peer group (bbr3, cubic, gcc — one model-based, one
loss-based, one real-time CCA) through the full peer-conformance
pipeline — self-competition trials, per-peer Performance Envelopes,
pairwise conformance matrix, k-selected clustering, peer scores — and
reports how many delivered packets the campaign pushes per wall-clock
second.  Numbers land in ``output/BENCH_peer_conformance.json`` so CI
history can catch a pathological slowdown in the new-CCA simulation
paths; functional guarantees (jobs-1-vs-N bit-identity, clustering
determinism) live in tier-1 tests.
"""

import time

from conftest import emit_bench, run_once

from repro.ccax.campaign import evaluate_peer_group
from repro.exec import Executor
from repro.harness import scenarios
from repro.harness.cache import ResultCache
from repro.harness.config import ExperimentConfig
from repro.harness.runner import Impl, run_pair

PEERS = ["bbr3", "cubic", "gcc"]
CONFIG = ExperimentConfig(duration_s=20.0, trials=2)


def test_peer_conformance_campaign(benchmark):
    condition = scenarios.shallow_buffer()

    def run():
        start = time.perf_counter()
        result = evaluate_peer_group(
            PEERS,
            condition,
            CONFIG,
            executor=Executor(cache=ResultCache()),
        )
        wall_s = time.perf_counter() - start
        # Packet count from one representative trial per peer (the
        # campaign's sampled point clouds don't retain traces).
        packets = 0
        for peer in PEERS:
            impl = Impl("linux", peer)
            pair = run_pair(
                impl, impl, condition, duration_s=CONFIG.duration_s, seed=0
            )
            packets += len(pair.first.trace.records)
            packets += len(pair.second.trace.records)
        return result, packets, wall_s

    result, packets, wall_s = run_once(benchmark, run)
    assert sorted(result.peers) == sorted(PEERS)
    assert 1 <= result.k <= len(PEERS)
    assert packets > 0
    emit_bench(
        __file__,
        peers=PEERS,
        k=int(result.k),
        scores={p: round(result.score_of(p), 4) for p in result.peers},
        trials=CONFIG.trials,
        duration_s=CONFIG.duration_s,
        packets=packets,
        sim_wall_s=round(wall_s, 4),
        packets_per_s=round(packets / wall_s, 1),
    )
