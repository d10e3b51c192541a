"""Fault plans, rule matching, the injector, and the zero-cost seam."""

import pickle
import sqlite3
import time

import pytest

from repro.faults import inject
from repro.faults.inject import (
    CRASH_EXIT_CODE,
    FaultInjector,
    InjectedDiskError,
    InjectedDisconnect,
    InjectedFault,
    InjectedLocked,
    active_plan,
    fault_point,
    fault_value,
)
from repro.faults.plan import (
    FAULT_CLASSES,
    FAULT_CLOCK_SKEW,
    FAULT_DISK_FULL,
    FAULT_HTTP_DISCONNECT,
    FAULT_JOURNAL_CORRUPT,
    FAULT_JOURNAL_TRUNCATE,
    FAULT_STORE_LOCKED,
    FAULT_WORKER_CRASH,
    FaultPlan,
    MATRIX_CLASSES,
    fault_matrix,
    rule,
    seeded_hits,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    yield
    inject.deactivate()


class TestFaultRule:
    def test_exact_site_match(self):
        r = rule(FAULT_STORE_LOCKED, "store.execute")
        assert r.matches_site("store.execute")
        assert not r.matches_site("store.execute.other")

    def test_prefix_site_match(self):
        r = rule(FAULT_STORE_LOCKED, "store.*")
        assert r.matches_site("store.execute")
        assert r.matches_site("store.anything")
        assert not r.matches_site("exec.worker.trial")

    def test_ctx_match(self):
        r = rule(FAULT_WORKER_CRASH, "exec.worker.trial", when={"attempt": 1})
        assert r.matches_ctx({"attempt": 1, "index": 5})
        assert not r.matches_ctx({"attempt": 2})
        assert not r.matches_ctx({})

    def test_unknown_fault_class_rejected(self):
        with pytest.raises(ValueError, match="unknown fault class"):
            rule("made-up", "anywhere")


class TestSeededHits:
    def test_deterministic(self):
        assert seeded_hits(5, 3, 1, 10) == seeded_hits(5, 3, 1, 10)

    def test_seed_sensitivity(self):
        draws = {seeded_hits(s, 3, 1, 20) for s in range(10)}
        assert len(draws) > 1

    def test_sorted_distinct_in_range(self):
        hits = seeded_hits(1, 4, 2, 9)
        assert list(hits) == sorted(set(hits))
        assert all(2 <= h <= 9 for h in hits)

    def test_count_clamped_to_population(self):
        assert len(seeded_hits(0, 99, 1, 3)) == 3


class TestFaultPlan:
    def test_picklable(self):
        plan = fault_matrix("smoke").plans[FAULT_WORKER_CRASH]
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan

    def test_rules_for_filters_by_site(self):
        plan = FaultPlan(
            name="p",
            rules=(
                rule(FAULT_STORE_LOCKED, "store.execute"),
                rule(FAULT_JOURNAL_TRUNCATE, "exec.manifest.line"),
            ),
        )
        assert len(plan.rules_for("store.execute")) == 1
        assert plan.rules_for("nowhere") == ()

    def test_describe_names_every_rule(self):
        plan = fault_matrix("smoke").plans[FAULT_STORE_LOCKED]
        text = plan.describe()
        assert FAULT_STORE_LOCKED in text and "store.execute" in text

    def test_matrices_resolve(self):
        smoke = fault_matrix("smoke")
        full = fault_matrix("default")
        assert set(smoke.plans) == set(MATRIX_CLASSES["smoke"])
        assert set(full.plans) == set(FAULT_CLASSES)

    def test_unknown_matrix_rejected(self):
        with pytest.raises(ValueError, match="unknown fault matrix"):
            fault_matrix("nope")

    def test_same_seed_same_schedule(self):
        assert fault_matrix("smoke", seed=3).plans == fault_matrix(
            "smoke", seed=3
        ).plans


class TestInjector:
    def test_hits_select_occurrences(self):
        plan = FaultPlan(
            "p", (rule(FAULT_STORE_LOCKED, "s", hits=(2, 4)),)
        )
        injector = FaultInjector(plan)
        fired = []
        for occurrence in range(1, 6):
            try:
                injector.fire("s", {})
            except InjectedLocked:
                fired.append(occurrence)
        assert fired == [2, 4]
        assert injector.fire_count() == 2
        assert injector.fire_count(FAULT_STORE_LOCKED) == 2

    def test_ctx_mismatch_does_not_advance_counter(self):
        plan = FaultPlan(
            "p",
            (rule(FAULT_STORE_LOCKED, "s", hits=(1,), when={"sql": "insert"}),),
        )
        injector = FaultInjector(plan)
        injector.fire("s", {"sql": "select"})  # not counted
        with pytest.raises(InjectedLocked):
            injector.fire("s", {"sql": "insert"})  # first counted occurrence

    def test_limit_caps_total_fires(self):
        plan = FaultPlan("p", (rule(FAULT_STORE_LOCKED, "s", limit=2),))
        injector = FaultInjector(plan)
        raised = 0
        for _ in range(5):
            try:
                injector.fire("s", {})
            except InjectedLocked:
                raised += 1
        assert raised == 2

    def test_injected_exceptions_are_real_types(self):
        locked = InjectedLocked(FAULT_STORE_LOCKED, "s")
        disk = InjectedDiskError(FAULT_DISK_FULL, "s", 28)
        reset = InjectedDisconnect(FAULT_HTTP_DISCONNECT, "s")
        assert isinstance(locked, sqlite3.OperationalError)
        assert "locked" in str(locked)
        assert isinstance(disk, OSError) and disk.errno == 28
        assert isinstance(reset, ConnectionResetError)
        for exc in (locked, disk, reset):
            assert isinstance(exc, InjectedFault)

    def test_transform_truncates_and_corrupts(self):
        line = '{"event": "job", "index": 3}'
        plan = FaultPlan("p", (rule(FAULT_JOURNAL_TRUNCATE, "j", hits=(1,)),))
        injector = FaultInjector(plan)
        torn = injector.transform("j", line, {})
        assert torn == line[: len(line) // 2]

        plan = FaultPlan("p", (rule(FAULT_JOURNAL_CORRUPT, "j", hits=(1,)),))
        injector = FaultInjector(plan)
        garbled = injector.transform("j", line, {})
        assert garbled != line and "\x00" in garbled

    def test_transform_skews_clock(self):
        plan = FaultPlan("p", (rule(FAULT_CLOCK_SKEW, "c", param=100.0),))
        injector = FaultInjector(plan)
        assert injector.transform("c", 5.0, {}) == 105.0

    def test_crash_exit_code_is_distinctive(self):
        assert CRASH_EXIT_CODE == 27


class TestModuleSeam:
    def test_noop_without_plan(self):
        inject.deactivate()
        fault_point("anywhere", attempt=1)
        assert fault_value("anywhere", "v") == "v"
        assert inject.active() is None

    def test_active_plan_context(self):
        plan = FaultPlan("p", (rule(FAULT_STORE_LOCKED, "s", hits=(1,)),))
        with active_plan(plan) as injector:
            assert inject.active() is injector
            with pytest.raises(InjectedLocked):
                fault_point("s")
        assert inject.active() is None

    def test_activate_replaces_previous_plan(self):
        first = inject.activate(FaultPlan("a", ()))
        second = inject.activate(FaultPlan("b", ()))
        assert inject.active() is second is not first


class TestZeroCostSeam:
    def test_inactive_fault_point_is_cheap(self):
        """Benchmark guard: the seam must stay a bare None check.

        A loose absolute bound (well above any plausible CI noise for a
        no-op call) rather than a relative one: the contract is "no plan
        active means no work", and regressions that add matching or
        locking to the inactive path blow through this by an order of
        magnitude.
        """
        inject.deactivate()
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            fault_point("exec.worker.trial", index=0, attempt=1)
        elapsed = time.perf_counter() - start
        per_call_us = elapsed / n * 1e6
        assert per_call_us < 25.0, f"inactive fault_point: {per_call_us:.2f}us/call"

    def test_inactive_fault_value_is_identity(self):
        inject.deactivate()
        sentinel = object()
        assert fault_value("exec.manifest.clock", sentinel) is sentinel
