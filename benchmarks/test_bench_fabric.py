"""repro.fabric: queue throughput and distributed campaign latency.

Two numbers the fabric must not quietly regress on:

* raw :class:`repro.fabric.queue.WorkQueue` throughput — every lease,
  heartbeat and completion is one SQLite transaction, so a schema or
  indexing slip shows up here long before it wedges a real fleet;
* end-to-end campaign latency through the coordinator at fleet sizes
  1, 2 and 4 — each fleet drains the same number of campaigns, every
  campaign seeded differently so the work is genuinely cold and the
  worker-count scaling stays visible.

Wall-clocks are reported (and floored loosely); the bit-identity and
protocol guarantees live in the tier-1 fabric test suite.
"""

import threading
import time

import numpy as np
from conftest import emit_bench, run_once

from repro.fabric.coordinator import Coordinator
from repro.fabric.queue import WorkQueue
from repro.fabric.worker import FabricWorker, LocalTransport
from repro.service.scheduler import DONE, TERMINAL_STATES
from repro.service.specs import parse_campaign_spec
from repro.store import open_store

N_QUEUE_TASKS = 200
FLEET_SIZES = (1, 2, 4)
CAMPAIGNS_PER_FLEET = 4
N_STORE_TRIALS = 300
STORE_SHARDS = 4

SPEC = {
    "kind": "conformance",
    "stacks": ["xquic"],
    "ccas": ["cubic"],
    "duration_s": 3,
    "trials": 2,
    "run": "bench-fabric",
}


def test_queue_throughput(benchmark, tmp_path, save_artifact):
    """Full enqueue -> lease -> heartbeat -> complete cycle, serially."""
    spec = {"kind": "conformance", "stacks": ["quiche"], "ccas": ["cubic"]}

    def cycle():
        with WorkQueue(str(tmp_path / "queue.db")) as q:
            t0 = time.perf_counter()
            for i in range(N_QUEUE_TASKS):
                q.enqueue(f"bench-{i:05d}", spec, priority=i % 3)
            enqueue_wall = time.perf_counter() - t0

            t0 = time.perf_counter()
            drained = 0
            while True:
                lease = q.lease("bench-worker", ttl_s=600.0)
                if lease is None:
                    break
                q.heartbeat(lease.campaign, lease.lease_id, ttl_s=600.0)
                q.complete(lease.campaign, lease.lease_id, {"cells": 1})
                drained += 1
            drain_wall = time.perf_counter() - t0
        return enqueue_wall, drained, drain_wall

    enqueue_wall, drained, drain_wall = run_once(benchmark, cycle)
    assert drained == N_QUEUE_TASKS
    tasks_per_s = drained / drain_wall
    lines = [
        f"repro.fabric queue benchmark ({N_QUEUE_TASKS} tasks)",
        f"enqueue: {N_QUEUE_TASKS / enqueue_wall:,.0f} tasks/s "
        f"({enqueue_wall:.2f}s)",
        f"lease+heartbeat+complete: {tasks_per_s:,.0f} tasks/s "
        f"({drain_wall:.2f}s, 3 transactions per task)",
    ]
    save_artifact("fabric_queue", "\n".join(lines))
    emit_bench(
        __file__,
        queue_tasks=N_QUEUE_TASKS,
        queue_tasks_per_s=round(tasks_per_s, 1),
        queue_enqueue_per_s=round(N_QUEUE_TASKS / enqueue_wall, 1),
    )
    # Generous floor: a 10x regression in the SQLite layer trips this.
    assert tasks_per_s > 5


def test_sharded_store_throughput(benchmark, tmp_path, save_artifact):
    """Streaming ingest + full read-back through a sharded warehouse.

    Every trial is one content-addressed payload hash-routed to a shard
    plus a run link on the meta shard — the same write path a fleet of
    workers drives concurrently, so a dispatch or transaction slip in
    :class:`repro.store.ShardedResultStore` shows up here first.
    """
    payloads = [
        np.full((256,), float(i)) for i in range(N_STORE_TRIALS)
    ]

    def cycle():
        root = tmp_path / "warehouse"
        with open_store(root, shards=STORE_SHARDS) as store:
            run = store.ensure_run("bench")
            t0 = time.perf_counter()
            for i, payload in enumerate(payloads):
                store.put_trial(f"bench-{i:05d}", payload, run=run)
            write_wall = time.perf_counter() - t0

            t0 = time.perf_counter()
            read = sum(
                store.get_trial(f"bench-{i:05d}").shape[0]
                for i in range(N_STORE_TRIALS)
            )
            read_wall = time.perf_counter() - t0
            assert read == N_STORE_TRIALS * 256
            assert store.counts()["shards"] == STORE_SHARDS
            assert store.integrity_ok()
        return write_wall, read_wall

    write_wall, read_wall = run_once(benchmark, cycle)
    write_per_s = N_STORE_TRIALS / write_wall
    read_per_s = N_STORE_TRIALS / read_wall
    lines = [
        f"repro.store sharded warehouse benchmark "
        f"({N_STORE_TRIALS} trials, {STORE_SHARDS} shards)",
        f"put_trial: {write_per_s:,.0f} trials/s ({write_wall:.2f}s)",
        f"get_trial: {read_per_s:,.0f} trials/s ({read_wall:.2f}s)",
    ]
    save_artifact("fabric_sharded_store", "\n".join(lines))
    emit_bench(
        __file__,
        sharded_trials=N_STORE_TRIALS,
        sharded_shards=STORE_SHARDS,
        sharded_put_per_s=round(write_per_s, 1),
        sharded_get_per_s=round(read_per_s, 1),
    )
    # Generous floors: an order of magnitude under the tracked rates, so
    # only a pathological dispatch/transaction regression trips.
    assert write_per_s > 20, write_per_s
    assert read_per_s > 100, read_per_s


def _drain_fleet(store_path, workers):
    """Submit CAMPAIGNS_PER_FLEET cold campaigns and drain with a fleet."""
    coordinator = Coordinator(str(store_path))
    try:
        t0 = time.perf_counter()
        jobs = [
            coordinator.submit(
                parse_campaign_spec(
                    dict(SPEC, note=f"fleet{workers}-{i}",
                         seed=1000 * workers + i)
                )
            )
            for i in range(CAMPAIGNS_PER_FLEET)
        ]
        fleet = [
            FabricWorker(
                LocalTransport(coordinator),
                name=f"bench-w{i}",
                store_path=coordinator.store_path,
                poll_s=0.02,
                ttl_s=30.0,
            )
            for i in range(workers)
        ]
        threads = [
            threading.Thread(target=w.run, daemon=True) for w in fleet
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 600.0
        while time.monotonic() < deadline:
            states = [coordinator.job(job.id).state for job in jobs]
            if all(state in TERMINAL_STATES for state in states):
                break
            time.sleep(0.05)
        wall = time.perf_counter() - t0
        for worker in fleet:
            worker.stop()
        for thread in threads:
            thread.join(timeout=10.0)
        assert all(
            coordinator.job(job.id).state == DONE for job in jobs
        ), f"fleet of {workers} left campaigns unfinished"
        return wall
    finally:
        coordinator.shutdown(drain=False)


def test_campaign_latency_by_fleet_size(benchmark, tmp_path, save_artifact):
    walls = {}

    def sweep():
        for workers in FLEET_SIZES:
            # Fresh store per fleet: every run is cold, so the
            # wall-clocks compare worker counts, not cache luck.
            walls[workers] = _drain_fleet(
                tmp_path / f"fabric-{workers}.db", workers
            )
        return walls

    run_once(benchmark, sweep)
    lines = [
        "repro.fabric end-to-end campaign latency "
        f"({CAMPAIGNS_PER_FLEET} cold campaigns per fleet)",
    ] + [
        f"workers={w}: {walls[w]:.2f}s "
        f"({CAMPAIGNS_PER_FLEET / walls[w]:.2f} campaigns/s)"
        for w in FLEET_SIZES
    ]
    save_artifact("fabric_campaign_latency", "\n".join(lines))
    emit_bench(
        __file__,
        campaigns_per_fleet=CAMPAIGNS_PER_FLEET,
        campaign_wall_s={
            str(w): round(walls[w], 3) for w in FLEET_SIZES
        },
    )
    assert all(wall > 0 for wall in walls.values())
