"""Harness configuration, scenarios and the result cache."""

import numpy as np
import pytest

from repro.harness import scenarios
from repro.harness.cache import ResultCache, cache_key
from repro.harness.config import (
    ExperimentConfig,
    NetworkCondition,
    paper_experiment_config,
    quick_experiment_config,
)


class TestNetworkCondition:
    def test_unit_conversions(self):
        cond = NetworkCondition(bandwidth_mbps=20, rtt_ms=10, buffer_bdp=1)
        assert cond.bandwidth_bps == 20e6
        assert cond.rtt_s == 0.01
        link = cond.link_config()
        assert link.bandwidth_bps == 20e6
        assert link.queue_capacity() == 25000

    def test_jitter_capped_below_serialization(self):
        slow = NetworkCondition(bandwidth_mbps=20, rtt_ms=10, buffer_bdp=1)
        fast = NetworkCondition(bandwidth_mbps=100, rtt_ms=10, buffer_bdp=1)
        assert slow.jitter_s() <= 0.25e-3
        # At 100 Mbps the packet time is ~0.116 ms: jitter must shrink so
        # it cannot reorder past the loss-detection threshold.
        assert fast.jitter_s() < slow.jitter_s()
        assert fast.jitter_s() <= 1448 * 8 / 100e6

    def test_describe(self):
        assert NetworkCondition(20, 10, 1).describe() == "20mbps-10ms-1bdp"
        assert NetworkCondition(20, 10, 1, label="x").describe() == "x"

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkCondition(bandwidth_mbps=0)
        with pytest.raises(ValueError):
            NetworkCondition(rtt_ms=-1)
        with pytest.raises(ValueError):
            NetworkCondition(buffer_bdp=0)


class TestExperimentConfig:
    def test_defaults_and_paper_profile(self):
        default = ExperimentConfig()
        paper = paper_experiment_config()
        quick = quick_experiment_config()
        assert paper.duration_s == 120.0 and paper.trials == 5
        assert quick.duration_s < default.duration_s <= paper.duration_s

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(duration_s=0)
        with pytest.raises(ValueError):
            ExperimentConfig(trials=0)


class TestScenarios:
    def test_full_matrix_is_sixteen_conditions(self):
        matrix = scenarios.full_matrix()
        assert len(matrix) == 16
        assert len({c.describe() for c in matrix}) == 16

    def test_buffer_sweep_axis(self):
        sweep = scenarios.buffer_sweep()
        assert [c.buffer_bdp for c in sweep] == [0.5, 1.0, 3.0, 5.0]

    def test_named_conditions(self):
        assert scenarios.shallow_buffer().buffer_bdp == 1.0
        assert scenarios.deep_buffer().buffer_bdp == 5.0
        assert scenarios.fairness_condition().rtt_ms == 50.0
        assert scenarios.inter_cca_deep().buffer_bdp == 5.0


class TestResultCache:
    def test_memoizes(self):
        cache = ResultCache()
        calls = []

        def compute():
            calls.append(1)
            return np.array([1.0, 2.0])

        a = cache.get_or_compute("k", compute)
        b = cache.get_or_compute("k", compute)
        assert len(calls) == 1
        assert (a == b).all()
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_bounds_memory(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", np.zeros(1))
        cache.put("b", np.zeros(1))
        cache.get("a")  # touch: "b" is now the least recently used
        cache.put("c", np.zeros(1))
        assert cache.evictions == 1
        assert cache.get("b") is None  # evicted
        assert cache.get("a") is not None and cache.get("c") is not None
        assert len(cache._memory) == 2

    def test_counters_snapshot(self):
        cache = ResultCache(max_entries=1)
        cache.get("absent")
        cache.put("a", np.zeros(1))
        cache.put("b", np.zeros(1))
        cache.get("b")
        assert cache.counters() == {
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "entries": 1,
        }


class TestCacheKey:
    def test_stable_and_sensitive(self):
        a = cache_key(x=1, y="z")
        assert a == cache_key(y="z", x=1)  # order-insensitive
        assert a != cache_key(x=2, y="z")
        assert len(a) == 32

    def test_keys_pinned_so_stored_trials_keep_hitting(self):
        # Warehouses are keyed by these digests: changing the key scheme
        # (or CACHE_SCHEMA_VERSION) orphans every stored trial.
        assert cache_key(x=1, y="z") == "7449a626590eb6beaf245ba9d5f910f9"

    def test_handles_nested_structures(self):
        key = cache_key(cfg={"a": [1, 2], "b": (3, 4)})
        assert isinstance(key, str)
