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

import time

from conftest import emit_bench, run_once

from repro.fabric.coordinator import Coordinator
from repro.fabric.queue import WorkQueue
from repro.fabric.worker import worker_threads
from repro.service.scheduler import DONE, TERMINAL_STATES
from repro.service.specs import parse_campaign_spec

N_QUEUE_TASKS = 200
FLEET_SIZES = (1, 2, 4)
CAMPAIGNS_PER_FLEET = 4

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
        names = [f"bench-w{i}" for i in range(workers)]
        with worker_threads(coordinator, names, ttl_s=30.0, poll_s=0.02):
            deadline = time.monotonic() + 600.0
            while time.monotonic() < deadline:
                states = [coordinator.job(job.id).state for job in jobs]
                if all(state in TERMINAL_STATES for state in states):
                    break
                time.sleep(0.05)
            wall = time.perf_counter() - t0
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
