"""repro.exec: executor engine, retries/timeouts, telemetry, determinism.

The job functions used by the pool tests live at module level so they
pickle under the ``spawn`` start method; the crash/flake injections
coordinate across worker processes through counter files.
"""

import json
import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exec import ExecutionError, Executor, Job, TrialJob, pair_trial_jobs
from repro.exec.telemetry import JobRecord, ProgressPrinter
from repro.faults.retry import RetryPolicy
from repro.harness.cache import ResultCache
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.conformance import gather_trials
from repro.harness.runner import Impl, sampled_points, trial_identity
from repro.store import ResultStore, StoreCache

QUICK = ExperimentConfig(duration_s=3.0, trials=2)
COND = NetworkCondition(bandwidth_mbps=20, rtt_ms=10, buffer_bdp=1)


# --------------------------------------------------------------- job fns
# Must be module-level (picklable); they only compute.


def _double(x):
    return np.array([2.0 * x])


def _bump_then(counter: str, fail_attempts: int, action: str):
    """Fail (raise or hard-crash) for the first ``fail_attempts`` calls."""
    path = Path(counter)
    count = int(path.read_text()) if path.exists() else 0
    path.write_text(str(count + 1))
    if count < fail_attempts:
        if action == "crash":
            time.sleep(0.2)  # let the queue feeder flush "start" first
            os._exit(23)
        raise RuntimeError(f"transient failure #{count}")
    return np.array([42.0])


def _sleepy(seconds):
    time.sleep(seconds)
    return np.zeros(1)


# -------------------------------------------------------------- serial mode


class TestSerialExecutor:
    def test_runs_in_order_and_caches(self):
        cache = ResultCache()
        ex = Executor(jobs=1, cache=cache)
        jobs = [Job(fn=_double, args=(x,), key=f"k{x}") for x in range(4)]
        values = ex.run(jobs)
        assert [v[0] for v in values] == [0.0, 2.0, 4.0, 6.0]
        assert ex.last_mode == "serial"
        # Results landed in the campaign cache: a re-run is all hits.
        values2 = ex.run(jobs)
        assert all(np.array_equal(a, b) for a, b in zip(values, values2))
        assert [r.status for r in ex.last_records] == ["cached"] * 4

    def test_retry_recovers_from_transient_failure(self, tmp_path):
        counter = tmp_path / "attempts"
        ex = Executor(
            jobs=1, cache=ResultCache(),
            retry=RetryPolicy(max_attempts=3, backoff_s=0.01),
        )
        (value,) = ex.run(
            [Job(fn=_bump_then, args=(str(counter), 1, "raise"), key="flaky")]
        )
        assert value[0] == 42.0
        record = ex.last_records[0]
        assert record.status == "ok" and record.attempts == 2 and record.retried

    def test_exhausted_retries_raise(self, tmp_path):
        counter = tmp_path / "attempts"
        ex = Executor(
            jobs=1, cache=ResultCache(),
            retry=RetryPolicy(max_attempts=2, backoff_s=0.01),
        )
        with pytest.raises(ExecutionError) as err:
            ex.run([Job(fn=_bump_then, args=(str(counter), 99, "raise"), key="dead")])
        assert ex.last_records[0].status == "failed"
        assert "transient failure" in str(err.value)

    def test_duplicate_keys_computed_once(self):
        ex = Executor(jobs=1, cache=ResultCache())
        jobs = [Job(fn=_double, args=(7,), key="same")] * 3
        values = ex.run(jobs)
        assert all(v[0] == 14.0 for v in values)
        statuses = [r.status for r in ex.last_records]
        assert statuses.count("ok") == 1 and statuses.count("cached") == 2

    def test_progress_callback_sees_every_job(self):
        seen = []
        ex = Executor(
            jobs=1,
            cache=ResultCache(),
            progress=lambda record, done, total: seen.append((done, total)),
        )
        ex.run([Job(fn=_double, args=(x,), key=f"p{x}") for x in range(3)])
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_progress_printer_renders(self, capsys):
        import sys

        printer = ProgressPrinter(stream=sys.stderr)
        printer(JobRecord(index=0, label="x", status="ok", wall_s=0.5), 1, 2)
        assert "[1/2] x: ok" in capsys.readouterr().err

    def test_progress_printer_writes_each_line_atomically(self):
        # Regression: with jobs>1, per-update ``print()`` calls from
        # concurrent progress callbacks interleaved their text and
        # newline writes into garbled lines.  Each update must be one
        # newline-terminated write() call.
        class RecordingStream:
            def __init__(self):
                self.writes = []
                self.flushes = 0

            def write(self, text):
                self.writes.append(text)

            def flush(self):
                self.flushes += 1

        stream = RecordingStream()
        printer = ProgressPrinter(stream=stream)
        printer(JobRecord(index=0, label="a", status="ok", wall_s=0.1), 1, 3)
        printer(
            JobRecord(index=1, label="b", status="failed", wall_s=0.2,
                      error="boom"),
            2, 3,
        )
        assert len(stream.writes) == 2  # exactly one write per update
        assert all(w.endswith("\n") and w.count("\n") == 1
                   for w in stream.writes)
        assert stream.writes[1] == "[2/3] b: failed 0.20s (boom)\n"
        assert stream.flushes == 2


# ---------------------------------------------------------------- pool mode


class TestPoolExecutor:
    def test_parallel_trials_identical_to_serial(self):
        test, ref = Impl("quicgo", "reno"), Impl("linux", "reno")
        serial = gather_trials(
            test, ref, COND, QUICK, executor=Executor(cache=ResultCache())
        )
        ex = Executor(jobs=2, cache=ResultCache())
        parallel = gather_trials(test, ref, COND, QUICK, executor=ex)
        assert ex.last_mode.startswith("pool-spawn")
        assert len(serial) == len(parallel) == QUICK.trials
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b), "parallel must be bit-identical"

    def test_pool_campaign_reuses_only_through_the_warehouse(
        self, tmp_path, monkeypatch
    ):
        # The retired disk-cache variable is inert: nothing lands in it,
        # and a later campaign reuses trials through the warehouse alone.
        legacy = tmp_path / "legacy-cache"
        legacy.mkdir()
        monkeypatch.setenv("QUICBENCH_CACHE_DIR", str(legacy))
        joblist = pair_trial_jobs(
            Impl("quicgo", "reno"), Impl("linux", "reno"), COND, QUICK
        )
        with ResultStore(tmp_path / "warehouse.db") as store:
            with Executor(jobs=2, cache=StoreCache(store)) as ex:
                first = ex.run(joblist)
            assert ex.last_mode.startswith("pool-spawn")
            assert all(r.status == "ok" for r in ex.last_records)
            assert list(legacy.iterdir()) == []
            assert set(store.trial_keys()) == {job.key for job in joblist}

            with Executor(jobs=2, cache=StoreCache(store)) as again_ex:
                again = again_ex.run(joblist)
        assert all(r.status == "cached" for r in again_ex.last_records)
        for a, b in zip(first, again):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_worker_crash_retried_to_completion(self, tmp_path):
        counter = tmp_path / "crashes"
        ex = Executor(
            jobs=2, cache=ResultCache(),
            retry=RetryPolicy(max_attempts=3, backoff_s=0.01),
        )
        (value,) = ex.run(
            [Job(fn=_bump_then, args=(str(counter), 1, "crash"), key="crashy")]
        )
        assert value[0] == 42.0
        record = ex.last_records[0]
        assert record.status == "ok" and record.attempts >= 2

    def test_timeout_kills_worker_and_fails(self, tmp_path):
        manifest = tmp_path / "runs.jsonl"
        ex = Executor(
            jobs=2,
            cache=ResultCache(),
            timeout_s=0.5,
            retry=RetryPolicy(max_attempts=1),
            manifest_path=manifest,
        )
        with pytest.raises(ExecutionError):
            ex.run([Job(fn=_sleepy, args=(60.0,), key="slow", label="sleeper")])
        assert ex.last_records[0].status == "timeout"
        events = [json.loads(line) for line in manifest.read_text().splitlines()]
        job_events = [e for e in events if e["event"] == "job"]
        assert job_events and job_events[0]["status"] == "timeout"
        assert events[-1]["event"] == "campaign_end"
        assert events[-1]["statuses"] == {"timeout": 1}

    def test_fallback_to_serial_when_pool_cannot_start(self):
        ex = Executor(jobs=2, cache=ResultCache(), start_method="no-such-method")
        with pytest.warns(UserWarning, match="falling back"):
            values = ex.run([Job(fn=_double, args=(x,), key=f"f{x}") for x in range(3)])
        assert [v[0] for v in values] == [0.0, 2.0, 4.0]
        assert ex.last_mode == "serial-fallback"


class TestWarmPool:
    """Worker processes start once per process and serve many runs."""

    def test_runs_share_one_pool_and_match_serial(self, idle_pools):
        first = pair_trial_jobs(
            Impl("quicgo", "reno"), Impl("linux", "reno"), COND, QUICK
        )
        second = pair_trial_jobs(
            Impl("quiche", "cubic"), Impl("linux", "cubic"), COND, QUICK
        )
        serial = Executor(cache=ResultCache())
        expected = [serial.run(first), serial.run(second), serial.run(first)]
        ex = Executor(jobs=2, cache=ResultCache())
        other = Executor(jobs=2, cache=ResultCache())
        got = [ex.run(first), ex.run(second), other.run(first)]
        assert ex.last_mode == other.last_mode == "pool-spawnx2"
        # Two workers for three runs on two executors, not two per run.
        assert ex.telemetry.worker_spawns == 2
        assert other.telemetry.worker_spawns == 0
        for want, have in zip(expected, got):
            for a, b in zip(want, have):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert [pool.key for pool in idle_pools] == [("spawn", 2)]

    def test_timed_out_run_shuts_its_pool_down(self, idle_pools):
        ex = Executor(
            jobs=2, cache=ResultCache(), timeout_s=0.5,
            retry=RetryPolicy(max_attempts=1),
        )
        ex.run([Job(fn=_double, args=(1,), key="warm")])
        assert [pool.key for pool in idle_pools] == [("spawn", 2)]
        with pytest.raises(ExecutionError):
            ex.run([Job(fn=_sleepy, args=(60.0,), key="slow")])
        assert ex.last_records[0].status == "timeout"
        assert idle_pools == []
        assert multiprocessing.active_children() == []

    def test_stale_result_of_an_earlier_run_is_ignored(self, idle_pools):
        ex = Executor(jobs=2, cache=ResultCache())
        ex.run([Job(fn=_double, args=(1,), key="first")])
        (pool,) = idle_pools
        # A late "ok" for index 0 from the finished run, as a worker still
        # busy with a duplicate attempt would send it.
        pool.result_q.put(
            ("ok", pool.run_id, -1, 0, 1, np.array([-1.0]), 0.0)
        )
        (value,) = ex.run([Job(fn=_sleepy, args=(0.2,), key="second")])
        assert value[0] == 0.0
        assert ex.last_records[0].attempts == 1
        assert ex.telemetry.worker_spawns == 1

    def test_service_stop_leaves_no_worker_process(self, tmp_path, idle_pools):
        from repro.service import ServiceApp, ServiceClient

        app = ServiceApp(str(tmp_path / "store.db"), exec_jobs=2)
        app.start()
        try:
            client = ServiceClient(app.url, timeout_s=30.0)
            accepted = client.submit(
                {
                    "kind": "conformance",
                    "stacks": ["quiche"],
                    "ccas": ["cubic"],
                    "conditions": [
                        {"bandwidth_mbps": 2, "rtt_ms": 20, "buffer_bdp": 1}
                    ],
                    "duration_s": 3,
                    "trials": 1,
                    "run": "warm-pool",
                }
            )
            final = client.wait(accepted["id"], timeout_s=120)
            assert final["state"] == "done"
            assert [pool.key for pool in idle_pools] == [("spawn", 2)]
            assert multiprocessing.active_children()
        finally:
            app.stop()
        assert idle_pools == []
        assert multiprocessing.active_children() == []


# ------------------------------------------------------------ job specs


class TestTrialJob:
    def test_identity_matches_serial_derivation(self):
        spec = TrialJob(
            Impl("quiche", "cubic"), Impl("linux", "cubic"), COND, QUICK, trial=1
        )
        seed, key = trial_identity(
            Impl("quiche", "cubic"), Impl("linux", "cubic"), COND, QUICK, 1
        )
        assert spec.seed == seed and spec.cache_key == key
        job = spec.to_job()
        assert job.fn is sampled_points
        assert job.key == key
        assert "trial 1" in job.label

    def test_pair_trial_jobs_one_per_trial_distinct_keys(self):
        jobs = pair_trial_jobs(
            Impl("quiche", "cubic"), Impl("linux", "cubic"), COND, QUICK
        )
        assert len(jobs) == QUICK.trials
        assert len({j.key for j in jobs}) == QUICK.trials

    def test_measurement_jobs_dedupe_reference_between_cells(self):
        from repro.exec import measurement_trial_jobs

        a = measurement_trial_jobs("quiche", "cubic", COND, QUICK)
        b = measurement_trial_jobs("mvfst", "cubic", COND, QUICK)
        keys_a, keys_b = {j.key for j in a}, {j.key for j in b}
        # The reference-vs-reference trials are the same jobs in both cells.
        assert len(keys_a & keys_b) == QUICK.trials

    def test_sweep_jobs_cover_reference_and_gains(self):
        from repro.exec import sweep_trial_jobs

        jobs = sweep_trial_jobs((1.0, 2.0), COND, QUICK)
        # 2 reference trials + 2 gains x 2 trials, all distinct keys.
        assert len(jobs) == 6
        assert len({j.key for j in jobs}) == 6

    def test_share_job_key_matches_serial(self):
        from repro.exec import share_job
        from repro.harness.fairness import share_cache_key

        first, second = Impl("quiche", "cubic"), Impl("linux", "cubic")
        job = share_job(first, second, COND, QUICK)
        assert job.key == share_cache_key(first, second, COND, QUICK)
