"""The full conformance pipeline at reduced scale."""

import pytest

from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.conformance import (
    conformance_heatmap,
    measure_conformance,
    reference_trials,
)
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


def test_each_reference_envelope_is_built_once(monkeypatch, fresh_executor):
    """4 cells over 2 kernel references build 4 test and 2 reference
    envelopes, through the attribute perfbench's envelope span wraps,
    and each cell still equals an evaluation with its own reference."""
    import importlib

    from repro.core.conformance import evaluate_conformance
    from repro.core.envelope import build_envelope
    from repro.exec import measurement_trial_jobs
    from repro.harness import conformance as harness
    from repro.harness.conformance import heatmap_cells, measure_cells
    from tests.test_core_golden import analysis_digest

    core = importlib.import_module("repro.core.conformance")
    config = ExperimentConfig(duration_s=3.0, trials=2)
    cells = heatmap_cells(CONDITION, ("cubic", "reno"), ("quicgo", "xquic"))
    assert len(cells) == 4
    builds, evaluations = [], []

    def counting_build(trials, *args):
        builds.append(len(trials))
        return build_envelope(trials, *args)

    def counting_evaluate(*args):
        evaluations.append(args)
        return evaluate_conformance(*args)

    monkeypatch.setattr(core, "build_envelope", counting_build)
    monkeypatch.setattr(harness, "evaluate_conformance", counting_evaluate)
    measurements = measure_cells(cells, config, fresh_executor)
    assert len(builds) == 6 and len(evaluations) == 4

    monkeypatch.undo()
    for cell, measurement in zip(cells, measurements):
        jobs = measurement_trial_jobs(cell.stack, cell.cca, CONDITION, config)
        values = fresh_executor.run(jobs)
        alone = evaluate_conformance(
            values[:2], build_envelope(values[2:], config.envelope), config.envelope
        )
        assert analysis_digest(measurement.result) == analysis_digest(alone)
