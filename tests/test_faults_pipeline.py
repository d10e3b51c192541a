"""Fault seams threaded through the pipeline: store, exec, service.

Each test activates a small bespoke :class:`FaultPlan` against one
production seam and asserts the hardening path it exercises — retry
absorption, typed errors, breaker-gated spill, quarantine, degraded
health — not merely that the fault fired.
"""

import json
import queue
import sqlite3

import numpy as np
import pytest

from repro.exec import ExecutionError, Executor, Job
from repro.exec.pool import _worker_main
from repro.exec.telemetry import STATUS_QUARANTINED, StoreSink
from repro.faults import inject
from repro.faults.breaker import BreakerOpen, get_breaker, reset_breakers
from repro.faults.inject import active_plan
from repro.faults.plan import (
    FAULT_DISK_FULL,
    FAULT_HTTP_DISCONNECT,
    FAULT_STORE_LOCKED,
    FAULT_WORKER_CRASH,
    FaultPlan,
    rule,
)
from repro.faults.retry import RetryPolicy
from repro.harness.cache import ResultCache
from repro.store import ResultStore, StoreCache, StoreError, ingest_sideline
from repro.service.client import ServiceClient, ServiceError


@pytest.fixture(autouse=True)
def _isolated_faults():
    reset_breakers()
    inject.deactivate()
    yield
    inject.deactivate()
    reset_breakers()


def instant_retry(**kwargs):
    """A policy that never really sleeps and never really waits."""
    kwargs.setdefault("max_attempts", 3)
    kwargs.setdefault("backoff_s", 0.001)
    kwargs.setdefault("sleep", lambda s: None)
    return RetryPolicy(**kwargs)


# ------------------------------------------------------------- warehouse


class TestWarehouseFaults:
    def test_locked_burst_absorbed_by_retry(self, tmp_path):
        plan = FaultPlan(
            "burst",
            (
                rule(
                    FAULT_STORE_LOCKED, "store.execute",
                    hits=(1, 2), when={"sql": "insert"},
                ),
            ),
        )
        with active_plan(plan) as injector:
            store = ResultStore(tmp_path / "s.db", retry=instant_retry())
            assert store.put_trial("k", np.arange(3.0))
            store.close()
        assert injector.fire_count(FAULT_STORE_LOCKED) == 2
        with ResultStore(tmp_path / "s.db") as clean:
            assert np.array_equal(clean.get_trial("k"), np.arange(3.0))

    def test_locked_past_deadline_raises_typed_store_error(self, tmp_path):
        plan = FaultPlan(
            "wedged",
            (rule(FAULT_STORE_LOCKED, "store.execute", when={"sql": "insert"}),),
        )
        retry = instant_retry(max_attempts=None, deadline_s=0.0)
        with active_plan(plan):
            store = ResultStore(tmp_path / "s.db", retry=retry)
            with pytest.raises(StoreError, match="retry deadline"):
                store.put_trial("k", np.arange(3.0))
            store.close()

    def test_pragmas_and_migration_do_not_fault(self, tmp_path):
        # The insert-scoped rule must not hit connection setup: opening
        # the store (PRAGMAs + migration DDL) stays clean.
        plan = FaultPlan(
            "inserts-only",
            (rule(FAULT_DISK_FULL, "store.execute", when={"sql": "insert"}),),
        )
        with active_plan(plan):
            store = ResultStore(tmp_path / "s.db", retry=instant_retry())
            assert store.trial_keys() == []  # reads fine
            with pytest.raises(OSError):
                store.put_trial("k", np.arange(3.0))
            store.close()

    def test_plain_connection_when_no_plan_active(self, tmp_path):
        store = ResultStore(tmp_path / "s.db")
        assert isinstance(store._conn, sqlite3.Connection)
        store.close()


class TestStoreCacheDegradation:
    def test_dead_store_degrades_to_memory_tier(self, tmp_path):
        store = ResultStore(tmp_path / "s.db")
        cache = StoreCache(store)
        store.close()  # the warehouse goes away mid-campaign
        with pytest.warns(UserWarning, match="degrading"):
            value = cache.get_or_compute("k", lambda: np.ones(4))
        assert np.array_equal(value, np.ones(4))
        assert cache.counters()["store_errors"] >= 1
        # The memory tier still serves it.
        assert np.array_equal(cache.get("k"), np.ones(4))


# ------------------------------------------------------------ store sink


class TestStoreSinkSpill:
    def test_spill_and_replay_round_trip(self, tmp_path):
        store_path = tmp_path / "s.db"
        store = ResultStore(store_path)
        breaker = get_breaker("sink-test", failure_threshold=1)
        breaker.record_failure(OSError("disk full"))  # open from the start
        sink = StoreSink(store, breaker=breaker)
        payload = np.linspace(0.0, 1.0, 7)
        sink.campaign_start("c1", jobs=1, workers=1, mode="serial")
        stored = sink.trials("c1", [("trial-key", payload)])
        assert stored == 0  # nothing reached the warehouse
        assert sink.spilled >= 2
        assert not store.has_trial("trial-key")
        store.close()

        sideline = tmp_path / "s.db.sideline.jsonl"
        assert sideline.exists()
        lines = [json.loads(l) for l in sideline.read_text().splitlines()]
        assert {l["kind"] for l in lines} == {"event", "trial"}

        with ResultStore(store_path) as fresh:
            report = ingest_sideline(fresh, sideline)
            assert report.trials == 1 and report.events == 1
            replayed = fresh.get_trial("trial-key")
            assert replayed.dtype == payload.dtype
            assert np.array_equal(replayed, payload)  # bit-identical
            events = fresh.events(campaign="c1")
            assert any(e["event"] == "campaign_start" for e in events)

    def test_breaker_trips_after_repeated_store_failures(self, tmp_path):
        store_path = tmp_path / "s.db"
        plan = FaultPlan(
            "df", (rule(FAULT_DISK_FULL, "store.execute", when={"sql": "insert"}),)
        )
        # The faulty-connection wrapper is installed at open time, so the
        # store must be built while the plan is active.
        with active_plan(plan):
            store = ResultStore(store_path, retry=instant_retry())
            sink = StoreSink(store)
            for n in range(4):
                sink.campaign_start(f"c{n}", jobs=1, workers=1, mode="serial")
        assert sink.breaker.is_open()
        assert sink.spilled >= 1
        store.close()

    def test_sideline_replay_dedupes(self, tmp_path):
        store_path = tmp_path / "s.db"
        with ResultStore(store_path) as store:
            breaker = get_breaker("sink-dedupe", failure_threshold=1)
            breaker.record_failure(OSError("down"))
            sink = StoreSink(store, breaker=breaker)
            sink.trials("c", [("k", np.ones(3))])
        sideline = tmp_path / "s.db.sideline.jsonl"
        with ResultStore(store_path) as fresh:
            fresh.put_trial("k", np.ones(3))  # landed some other way
            report = ingest_sideline(fresh, sideline)
            assert report.trials == 0 and report.trials_deduped == 1


# -------------------------------------------------------------- executor


def _ok(x, cache=None):
    return np.array([float(x)])


def _cache_probe(cache=None):
    """1.0 if this worker's cache already held the probe entry, else 0.0."""
    hit = cache.get("probe") is not None
    cache.put("probe", np.zeros(1))
    return np.array([float(hit)])


class TestExecutorFaults:
    def test_serial_retry_uses_injected_sleep(self, tmp_path):
        sleeps = []
        retry = RetryPolicy(
            max_attempts=3, backoff_s=0.25, sleep=sleeps.append
        )
        calls = []

        def flaky(cache=None):
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("transient")
            return np.ones(1)

        ex = Executor(jobs=1, cache=ResultCache(), retry=retry)
        (value,) = ex.run([Job(fn=flaky, key="f")])
        assert value[0] == 1.0
        # Both pauses went through the policy's seam, none through a raw
        # time.sleep: the list recorded them and the test ran instantly.
        assert sleeps == [pytest.approx(0.25), pytest.approx(0.5)]

    def test_retry_policy_overrides_legacy_knobs(self):
        retry = RetryPolicy(max_attempts=7, backoff_s=0.125)
        ex = Executor(jobs=1, retries=1, backoff_s=99.0, retry=retry)
        assert ex.retries == 6
        assert ex.backoff_s == 0.125

    def test_poison_job_quarantined_in_pool(self):
        # Crash the worker on *every* attempt of the poison job: without
        # quarantine this would burn the whole respawn budget.
        plan = FaultPlan(
            "poison", (rule(FAULT_WORKER_CRASH, "exec.worker.trial"),)
        )
        ex = Executor(
            jobs=2,
            cache=ResultCache(),
            retry=RetryPolicy(max_attempts=6, backoff_s=0.01),
            poison_crashes=2,
            fault_plan=plan,
        )
        with pytest.raises(ExecutionError):
            ex.run([Job(fn=_ok, args=(1,), key="poison")])
        record = ex.last_records[0]
        assert record.status == STATUS_QUARANTINED
        assert "quarantined after 2 worker crashes" in record.error

    def test_quarantining_run_shuts_its_pool_down(self, idle_pools):
        plan = FaultPlan(
            "poison", (rule(FAULT_WORKER_CRASH, "exec.worker.trial"),)
        )
        ex = Executor(
            jobs=2,
            cache=ResultCache(),
            retry=RetryPolicy(max_attempts=6, backoff_s=0.01),
            poison_crashes=2,
            fault_plan=plan,
        )
        with pytest.raises(ExecutionError):
            ex.run([Job(fn=_ok, args=(1,), key="poison")])
        assert ex.last_records[0].status == STATUS_QUARANTINED
        assert idle_pools == []

    def test_worker_crash_under_quarantine_threshold_still_retries(self):
        # First-attempt-only crash: the retry succeeds before the poison
        # threshold, proving quarantine never fires on transient crashes.
        plan = FaultPlan(
            "once",
            (rule(FAULT_WORKER_CRASH, "exec.worker.trial", when={"attempt": 1}),),
        )
        ex = Executor(
            jobs=2,
            cache=ResultCache(),
            retry=RetryPolicy(max_attempts=4, backoff_s=0.01),
            poison_crashes=3,
            fault_plan=plan,
        )
        (value,) = ex.run([Job(fn=_ok, args=(5,), key="transient")])
        assert value[0] == 5.0
        assert ex.last_records[0].status == "ok"
        assert ex.last_records[0].retried

    def test_first_attempt_crash_recovers_in_each_run_on_a_warm_pool(
        self, idle_pools
    ):
        plan = FaultPlan(
            "once",
            (rule(FAULT_WORKER_CRASH, "exec.worker.trial", when={"attempt": 1}),),
        )
        ex = Executor(
            jobs=2,
            cache=ResultCache(),
            retry=RetryPolicy(max_attempts=4, backoff_s=0.01),
            poison_crashes=3,
            fault_plan=plan,
        )
        for n in (1, 2):
            (value,) = ex.run([Job(fn=_ok, args=(n,), key=f"transient-{n}")])
            assert value[0] == float(n)
            record = ex.last_records[0]
            assert record.status == "ok" and record.retried
            assert record.attempts == 2
            # The crash was recovered, so the pool stays warm.
            assert [pool.key for pool in idle_pools] == [("spawn", 2)]
        # One worker for the first one-job run, then one replacement per
        # crash: the second run started no worker of its own.
        assert ex.telemetry.worker_spawns == 3

    def test_worker_starts_each_run_with_fresh_plan_and_cache(self):
        # The worker loop, in-process, fed tasks of three runs.  A new run
        # id re-activates that run's plan (occurrence counters from zero)
        # and starts an empty cache; a run without a plan deactivates the
        # old one.  The plan fails the first trial of each activation.
        plan = FaultPlan(
            "first", (rule(FAULT_STORE_LOCKED, "exec.worker.trial", hits=(1,)),)
        )
        tasks, results = queue.Queue(), queue.Queue()
        probe = Job(fn=_cache_probe, key="probe")
        for run, run_plan in ((1, plan), (1, plan), (2, plan), (2, plan),
                              (3, None), (3, None)):
            tasks.put((run, run_plan, 0, probe, 1))
        tasks.put(None)
        _worker_main(tasks, results, 1, plan)
        outcomes = []
        while not results.empty():
            msg = results.get()
            if msg[0] == "ok":
                outcomes.append((msg[1], "ok", float(msg[5][0])))
            elif msg[0] == "err":
                outcomes.append((msg[1], "err"))
        assert outcomes == [
            (1, "err"), (1, "ok", 0.0),
            (2, "err"), (2, "ok", 0.0),
            (3, "ok", 0.0), (3, "ok", 1.0),
        ]
        assert inject.active() is None


# --------------------------------------------------------------- service


class TestServiceFaults:
    def test_transport_failure_is_typed_and_retryable(self):
        client = ServiceClient("http://127.0.0.1:9")  # nothing listens
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 0
        assert "connection failed" in str(err.value)

    def test_injected_disconnect_maps_to_status_zero(self):
        plan = FaultPlan(
            "hd", (rule(FAULT_HTTP_DISCONNECT, "client.request", hits=(1,)),)
        )
        client = ServiceClient("http://127.0.0.1:9")
        with active_plan(plan):
            with pytest.raises(ServiceError) as err:
                client.health()
        assert err.value.status == 0
        assert "connection reset" in str(err.value)

    def test_submit_blocking_retries_transport_failures(self, tmp_path):
        # All attempts fail with status 0; the policy must keep retrying
        # through its fake sleep until the deadline, then re-raise.
        plan = FaultPlan("hd", (rule(FAULT_HTTP_DISCONNECT, "client.request"),))
        fake = {"now": 0.0}

        def sleep(seconds):
            fake["now"] += seconds

        retry = RetryPolicy(
            max_attempts=None, backoff_s=1.0, backoff_cap_s=1.0,
            deadline_s=4.5, sleep=sleep, clock=lambda: fake["now"],
        )
        client = ServiceClient("http://127.0.0.1:9")
        with active_plan(plan) as injector:
            with pytest.raises(ServiceError):
                client.submit_blocking({"kind": "matrix"}, retry=retry)
        assert injector.fire_count(FAULT_HTTP_DISCONNECT) >= 2

    def test_journal_breaker_rejects_submissions_when_open(self, tmp_path):
        from repro.service.scheduler import Scheduler
        from repro.service.specs import parse_campaign_spec

        scheduler = Scheduler(str(tmp_path / "s.db"), workers=0)
        breaker = get_breaker("service-journal", failure_threshold=1)
        breaker.record_failure(OSError("journal store gone"))
        spec = parse_campaign_spec(
            {
                "kind": "matrix",
                "stacks": ["quiche"],
                "ccas": ["cubic"],
                "conditions": [
                    {"bandwidth_mbps": 8, "rtt_ms": 20, "buffer_bdp": 0.6}
                ],
                "duration_s": 1.0,
                "trials": 1,
            }
        )
        with pytest.raises(BreakerOpen):
            scheduler.submit(spec)
        # Nothing half-registered: the job map stays empty.
        assert scheduler.jobs() == [] if hasattr(scheduler, "jobs") else True
        scheduler.shutdown(drain=False)

    def test_healthz_reports_degraded_while_breaker_open(self, tmp_path):
        from repro.service.server import ServiceApp

        app = ServiceApp(str(tmp_path / "s.db"), port=0, workers=0)
        app.start()
        try:
            client = ServiceClient(app.url)
            assert client.health()["status"] == "ok"
            breaker = get_breaker("store-sink:test", failure_threshold=1)
            breaker.record_failure(OSError("no space left on device"))
            health = client.health()
            assert health["status"] == "degraded"
            assert "store-sink:test" in health["degraded"]
            assert "no space left" in health["degraded"]["store-sink:test"]
            breaker.record_success()
            assert client.health()["status"] == "ok"
        finally:
            app.stop(drain=False)
