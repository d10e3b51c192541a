"""Tests for the benchmark's own code: seeded plans, the tail rule and
self-time arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import figures  # noqa: E402
import plans  # noqa: E402
from spans import Span, Tracer, campaign_split, layer_self_times, self_times  # noqa: E402


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert plans.plan(workload, 7, 25) == plans.plan(workload, 7, 25)


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_seeds_change_inputs_not_work(workload):
    runs = [plans.plan(workload, seed, 25) for seed in range(1, 9)]
    assert len({json.dumps(p.work(), sort_keys=True) for p in runs}) == 1
    specs = {repr([c.spec for c in p.campaigns]) for p in runs}
    assert len(specs) == len(runs)
    shapes = {
        tuple((c.cells, c.spec["duration_s"], c.spec["trials"], len(c.spec["conditions"]))
              for c in p.campaigns)
        for p in runs
    }
    assert len(shapes) == 1


def test_heatmap_covers_both_families_and_buffers():
    from repro.stacks import registry

    (campaign,) = plans.plan("heatmap-cold", 1, 20).campaigns
    spec = campaign.spec
    pairs = [(s, c) for s in spec["stacks"] for c in spec["ccas"]
             if registry.get_stack(s).supports(c)]
    assert {c for _, c in pairs} == {"cubic", "reno", "bbr"}
    assert campaign.cells == len(pairs) * 2 == 20
    buffers = sorted(c["buffer_bdp"] for c in spec["conditions"])
    assert buffers[0] <= 1.0 and buffers[-1] >= 3.0


def test_cold_campaigns_never_share_trial_seeds():
    for workload in ("heatmap-cold", "pool-short"):
        seeds = [c.spec["seed"] for c in plans.plan(workload, 3, 60).campaigns]
        assert len(set(seeds)) == len(seeds)


def test_warm_campaigns_resubmit_the_fill_grid():
    plan = plans.plan("resubmit-warm", 4, 25)
    grid = set(plan.fill.spec["stacks"])
    for campaign in plan.campaigns:
        assert set(campaign.spec["stacks"]) <= grid
        assert campaign.spec["seed"] == plan.fill.spec["seed"]
        assert campaign.statuses == {"cached": campaign.cells * 2 * plans.WARM_TRIALS}


def test_seconds_scale_the_loop_but_keep_the_floor():
    assert len(plans.plan("pool-short", 1, 1).campaigns) == plans.MIN_LOOP_CAMPAIGNS
    assert len(plans.plan("resubmit-warm", 1, 50).campaigns) == 200


def test_tail_leaves_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, percentile, met = figures.tail(values)
    assert met and value == 90 and percentile == 90.0
    assert sum(v > value for v in values) == 10


def test_tail_with_eleven_samples_is_the_minimum_with_ten_beyond():
    value, percentile, met = figures.tail([5.0] + [9.0] * 10)
    assert met and value == 5.0 and percentile == pytest.approx(100 / 11)


def test_tail_with_too_few_samples_is_the_maximum():
    assert figures.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, False)


def test_quartile_spread_matches_statistics():
    stats = figures.quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert stats["median"] == 5.5
    assert stats["spread"] == pytest.approx((stats["q3"] - stats["q1"]) / 5.5)


def _span(id, layer, start, end, parent=-1, campaign="c"):
    return Span(id=id, name=layer, layer=layer, start=start, end=end,
                parent=parent, campaign=campaign)


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, "campaign", 0.0, 10.0),
        _span(1, "exec", 1.0, 7.0, parent=0),
        _span(2, "netsim", 2.0, 5.0, parent=1),
        _span(3, "cache", 5.5, 6.0, parent=1),
        _span(4, "analysis", 8.0, 9.5, parent=0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 2.5, 1: 2.5, 2: 3.0, 3: 0.5, 4: 1.5})
    assert sum(own.values()) == pytest.approx(10.0)
    assert layer_self_times(spans)["netsim"] == pytest.approx(3.0)


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        _span(0, "exec", 0.0, 4.0),
        _span(1, "cache", 1.0, 3.0, parent=0),
        _span(2, "store", 2.0, 5.0, parent=0),  # overlaps and overruns
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_campaign_split_reports_time_outside_campaigns():
    spans = [
        _span(0, "campaign", 1.0, 4.0),
        _span(1, "netsim", 1.5, 3.5, parent=0),
        _span(2, "store", 4.5, 4.6, campaign=""),  # journal write
    ]
    split = campaign_split(spans, timed_s=5.0)
    assert split["netsim"] == pytest.approx(2.0)
    assert split["campaign"] == pytest.approx(1.0)
    assert split["outside_campaigns"] == pytest.approx(2.0)
    assert "store" not in split


def test_tracer_nests_spans_and_skips_same_name_reentry():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def outer():
        return tracer.call("cache.get", "cache", inner, (), {})[0]

    def inner():
        return tracer.call("cache.get", "cache", lambda: 1, (), {})[0]

    result, _, _ = tracer.call("exec.run", "exec", outer, (), {}, campaign="c1")
    assert result == 1
    assert [s.name for s in tracer.spans] == ["cache.get", "exec.run"]
    child, parent = tracer.spans
    assert child.parent == parent.id and child.campaign == "c1"


def test_tracer_install_patches_and_restores():
    from repro.harness import runner

    original = runner.run_pair
    tracer = Tracer()
    tracer.install()
    try:
        assert runner.run_pair is not original
    finally:
        tracer.uninstall()
    assert runner.run_pair is original


def test_end_to_end_names_match_benchmark_json():
    import run

    report = {"latencies": [1.0] * 12, "cells": 24, "timed_s": 12.0, "peak_rss_mb": 90.0}
    metrics, _ = run.end_to_end(report, [0.5, 0.6, 0.7])
    assert list(metrics) == list(run.metric_units(0))
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(plans.WORKLOADS)


def test_balanced_order_uses_every_item_equally():
    import random
    from collections import Counter

    order = plans._balanced(random.Random(1), ["a", "b", "c"], 8)
    assert len(order) == 8
    counts = Counter(order)
    assert max(counts.values()) - min(counts.values()) <= 1
