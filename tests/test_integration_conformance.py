"""The full conformance pipeline at reduced scale."""

import dataclasses
import importlib
import threading

import numpy as np
import pytest

from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.conformance import (
    conformance_heatmap,
    measure_conformance,
    reference_trials,
)
from repro.harness import envelopes
from repro.harness.internet import measure_conformance_internet

CONDITION = NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=1)
CFG = ExperimentConfig(duration_s=20.0, trials=2)


def test_conformant_stack_scores_reasonably(fresh_executor):
    # NOTE: this runs a deliberately tiny protocol (20 s x 2 trials), where
    # the trial-intersection PE is noisy; the calibrated thresholds live in
    # the benchmark suite, which uses the full 100 s x 3 protocol.
    m = measure_conformance("quicgo", "cubic", CONDITION, CFG, executor=fresh_executor)
    assert m.conformance > 0.2
    assert m.result.conformance_legacy > 0.7
    assert m.conformance_t >= m.conformance - 1e-9


def test_low_conformance_stack_detected(fresh_executor):
    quicgo = measure_conformance("quicgo", "cubic", CONDITION, CFG, executor=fresh_executor)
    quiche = measure_conformance("quiche", "cubic", CONDITION, CFG, executor=fresh_executor)
    assert quiche.conformance < quicgo.conformance


def test_delta_throughput_sign_matches_behaviour(fresh_executor):
    quiche = measure_conformance("quiche", "cubic", CONDITION, CFG, executor=fresh_executor)
    neqo = measure_conformance("neqo", "cubic", CONDITION, CFG, executor=fresh_executor)
    assert quiche.result.delta_throughput_mbps > 0  # aggressive
    assert neqo.result.delta_throughput_mbps < 0  # weak stack artifact


def test_measurement_row_fields(fresh_executor):
    m = measure_conformance("quicgo", "reno", CONDITION, CFG, executor=fresh_executor)
    row = m.row()
    assert row["stack"] == "quicgo"
    assert row["cca"] == "reno"
    assert 0 <= row["conf"] <= 1


def test_reference_trials_shared_by_cache(fresh_cache, fresh_executor):
    reference_trials("cubic", CONDITION, CFG, executor=fresh_executor)
    misses = fresh_cache.misses
    reference_trials("cubic", CONDITION, CFG, executor=fresh_executor)
    assert fresh_cache.misses == misses


def test_heatmap_subset(fresh_executor):
    measurements = conformance_heatmap(
        CONDITION, CFG, ccas=("reno",), stacks=("quicgo", "xquic"), executor=fresh_executor
    )
    assert set(measurements) == {("quicgo", "reno"), ("xquic", "reno")}
    for m in measurements.values():
        assert 0 <= m.conformance <= m.conformance_t <= 1
    # xquic's stack artifact shows as a throughput deficit even at this
    # tiny scale.
    assert (
        measurements[("xquic", "reno")].result.delta_throughput_mbps
        < measurements[("quicgo", "reno")].result.delta_throughput_mbps
    )


def test_internet_measurement_runs(fresh_executor):
    cfg = ExperimentConfig(duration_s=12.0, trials=2)
    m = measure_conformance_internet("quicgo", "cubic", cfg, executor=fresh_executor)
    assert 0 <= m.conformance <= 1
    assert m.condition.label == "internet-aws"


def _count_run_pair(monkeypatch):
    from repro.harness import runner

    calls = []
    original = runner.run_pair

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "run_pair", counting)
    return calls


def _unique_trial_keys(cells, config):
    from repro.exec import measurement_trial_jobs

    return {
        job.key
        for stack, cca in cells
        for job in measurement_trial_jobs(stack, cca, CONDITION, config)
    }


@pytest.mark.parametrize("entry", ["heatmap", "matrix"])
def test_evaluation_never_resimulates(monkeypatch, entry):
    # A one-entry LRU cannot hold a campaign: any evaluation that read
    # trials back from the cache would simulate them again.
    from repro.exec import Executor
    from repro.harness.cache import ResultCache
    from repro.harness.matrix import run_matrix

    config = ExperimentConfig(duration_s=3.0, trials=2)
    cells = [("quiche", "cubic"), ("xquic", "cubic")]
    calls = _count_run_pair(monkeypatch)
    executor = Executor(jobs=1, cache=ResultCache(max_entries=1))
    if entry == "heatmap":
        conformance_heatmap(
            CONDITION, config, ccas=("cubic",), stacks=("quiche", "xquic"),
            executor=executor,
        )
    else:
        run_matrix([CONDITION], cells, config, executor=executor)
    # 2 cells x 2 test trials + 2 reference trials both cells share.
    assert len(calls) == len(_unique_trial_keys(cells, config)) == 6


#: The short protocol of the envelope memo tests.
BASE = ExperimentConfig(duration_s=3.0, trials=2)


@pytest.fixture
def empty_memo():
    """Start (and end) with no memoized envelope."""
    envelopes.clear_envelopes()
    yield
    envelopes.clear_envelopes()


def _count_builds(monkeypatch):
    """Count envelope builds at the attribute the memo builds through
    (where perfbench's ``analysis.envelope`` span wraps it)."""
    core = importlib.import_module("repro.core.conformance")
    builds = []
    original = core.build_envelope

    def counting(trials, *args):
        builds.append(len(trials))
        return original(trials, *args)

    monkeypatch.setattr(core, "build_envelope", counting)
    return builds


def _fresh_digests(cells, config, executor):
    """Each cell's analysis digest with both envelopes built anew."""
    from repro.core.conformance import evaluate_conformance
    from repro.core.envelope import build_envelope
    from repro.exec import measurement_trial_jobs
    from tests.test_core_golden import analysis_digest

    trials = config.trials
    digests = []
    for cell in cells:
        jobs = measurement_trial_jobs(cell.stack, cell.cca, cell.condition, config)
        values = executor.run(jobs)
        digests.append(analysis_digest(evaluate_conformance(
            build_envelope(values[:trials], config.envelope),
            build_envelope(values[trials:], config.envelope),
        )))
    return digests


def _four_cells():
    from repro.harness.conformance import heatmap_cells

    cells = heatmap_cells(CONDITION, ("cubic", "reno"), ("quicgo", "xquic"))
    assert len(cells) == 4
    return cells


def test_each_reference_envelope_is_built_once(
    monkeypatch, fresh_executor, empty_memo
):
    """4 cells over 2 kernel references build 4 test and 2 reference
    envelopes, through the attribute perfbench's envelope span wraps,
    and each cell still equals an evaluation with its own reference."""
    from repro.harness import conformance as harness
    from repro.harness.conformance import measure_cells
    from tests.test_core_golden import analysis_digest

    config = BASE
    cells = _four_cells()
    evaluations = []
    original = harness.evaluate_conformance

    def counting_evaluate(*args):
        evaluations.append(args)
        return original(*args)

    builds = _count_builds(monkeypatch)
    monkeypatch.setattr(harness, "evaluate_conformance", counting_evaluate)
    measurements = measure_cells(cells, config, fresh_executor)
    assert len(builds) == 6 and len(evaluations) == 4

    monkeypatch.undo()
    assert [analysis_digest(m.result) for m in measurements] == _fresh_digests(
        cells, config, fresh_executor
    )


def test_second_campaign_builds_no_envelope(
    monkeypatch, fresh_executor, empty_memo
):
    """A second ``measure_cells`` over the same cells takes every PE from
    the memo, and its results equal envelopes built anew."""
    from repro.harness.conformance import measure_cells
    from tests.test_core_golden import analysis_digest

    config = BASE
    cells = _four_cells()
    first = measure_cells(cells, config, fresh_executor)
    builds = _count_builds(monkeypatch)
    second = measure_cells(cells, config, fresh_executor)
    assert builds == []
    for a, b in zip(first, second):
        assert b.result.test_envelope is a.result.test_envelope
        assert b.result.reference_envelope is a.result.reference_envelope

    monkeypatch.undo()
    assert [analysis_digest(m.result) for m in second] == _fresh_digests(
        cells, config, fresh_executor
    )


def _test_jobs(config=BASE, condition=CONDITION, variant="default"):
    """Jobs of one cell's test trials (no simulation)."""
    from repro.exec import measurement_trial_jobs

    jobs = measurement_trial_jobs("quicgo", "cubic", condition, config, variant)
    return jobs[:config.trials]


def _keys(jobs):
    return [job.key for job in jobs]


def _tiny_trials(count=2):
    rng = np.random.default_rng(7)
    return [rng.normal((20.0, 5.0), 1.0, size=(12, 2)) for _ in range(count)]


#: One changed input per case; each must name different trials.
TRIAL_CHANGES = {
    "seed": lambda: _test_jobs(config=BASE.overridden(seed=BASE.seed + 1)),
    "duration": lambda: _test_jobs(config=BASE.overridden(duration_s=4.0)),
    "condition": lambda: _test_jobs(condition=NetworkCondition(
        bandwidth_mbps=10, rtt_ms=20, buffer_bdp=2)),
    "sampling": lambda: _test_jobs(config=dataclasses.replace(
        BASE, sampling=dataclasses.replace(BASE.sampling, sample_rtts=5.0))),
    "variant": lambda: _test_jobs(variant="fixed"),
}

#: A changed value for every ``EnvelopeConfig`` field.
ENVELOPE_CHANGES = {"k": 1, "k_max": 4, "kmeans_seed": 1,
                    "min_retention": 0.1, "single_hull": True}


def test_envelope_changes_cover_every_field():
    from repro.core.envelope import EnvelopeConfig

    assert set(ENVELOPE_CHANGES) == {
        f.name for f in dataclasses.fields(EnvelopeConfig)
    }


@pytest.mark.parametrize(
    "change", sorted(TRIAL_CHANGES) + sorted(f"envelope.{n}" for n in ENVELOPE_CHANGES)
)
def test_any_changed_input_misses_the_memo(monkeypatch, empty_memo, change):
    from repro.core.envelope import EnvelopeConfig

    trials = _tiny_trials()
    base = envelopes.memoized_envelope(_test_jobs(), trials)
    builds = _count_builds(monkeypatch)
    assert envelopes.memoized_envelope(_test_jobs(), trials) is base
    assert builds == []
    if change in TRIAL_CHANGES:
        jobs, config = TRIAL_CHANGES[change](), EnvelopeConfig()
        assert _keys(jobs) != _keys(_test_jobs())
    else:
        name = change.split(".", 1)[1]
        jobs = _test_jobs()
        config = dataclasses.replace(EnvelopeConfig(), **{name: ENVELOPE_CHANGES[name]})
    envelopes.memoized_envelope(jobs, trials, config)
    assert builds == [2]


def test_memo_evicts_least_recently_used_at_its_bound(monkeypatch, empty_memo):
    from repro.core.envelope import EnvelopeConfig
    from repro.exec import Job

    config = EnvelopeConfig(k=1)
    trials = _tiny_trials(count=1)
    builds = _count_builds(monkeypatch)

    def get(i):
        job = Job(fn=len, key=f"trial-{i}")
        return envelopes.memoized_envelope([job], trials, config)

    bound = envelopes.MAX_ENVELOPES
    for i in range(bound):
        get(i)
    get(0)  # a hit: trial-0 becomes the most recently used
    assert len(builds) == bound
    get(bound)  # over the bound: evicts trial-1, the least recently used
    assert len(builds) == bound + 1
    get(0)
    get(bound)
    assert len(builds) == bound + 1
    get(1)
    assert len(builds) == bound + 2


def test_memoized_arrays_reject_writes(empty_memo):
    trials = _tiny_trials()
    pe = envelopes.memoized_envelope(_test_jobs(), trials)
    arrays = [pe.all_points, pe.retention_curve]
    for cluster in pe.clusters:
        arrays += [cluster.hull, cluster.points, cluster.centroid]
    arrays = [a for a in arrays if a is not None]
    assert len(arrays) >= 5
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 0.0
    # The caller's trials are not frozen with the envelope.
    trials[0][0, 0] = 0.0


def test_concurrent_campaigns_give_identical_results(fresh_executor, empty_memo):
    """Two threads measuring the same cells at once, both missing the
    memo, return the same results as a fresh build."""
    from repro.exec import Executor, measurement_trial_jobs
    from repro.harness.cache import ResultCache
    from repro.harness.conformance import measure_cells
    from tests.test_core_golden import analysis_digest

    config = BASE
    cells = _four_cells()
    jobs = [
        job
        for cell in cells
        for job in measurement_trial_jobs(cell.stack, cell.cca, CONDITION, config)
    ]
    values = fresh_executor.run(jobs)
    expected = _fresh_digests(cells, config, fresh_executor)
    envelopes.clear_envelopes()

    # Each thread gets its own warm cache, so neither simulates.
    def warm_executor():
        cache = ResultCache()
        for job, value in zip(jobs, values):
            cache.put(job.key, value)
        return Executor(cache=cache)

    executors = [warm_executor(), warm_executor()]
    barrier = threading.Barrier(2)
    results = [None, None]

    def measure(slot):
        barrier.wait()
        results[slot] = measure_cells(cells, config, executors[slot])

    threads = [threading.Thread(target=measure, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    for measurements in results:
        assert [analysis_digest(m.result) for m in measurements] == expected
