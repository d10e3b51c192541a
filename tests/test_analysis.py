"""Fix verification, sweeps and transitivity (light integration)."""

import numpy as np
import pytest

from repro.analysis.fixes import (
    FIXES,
    UNFIXED,
    cwnd_time_series,
    evaluate_all_fixes,
    evaluate_fix,
)
from repro.analysis.sweeps import cwnd_gain_sweep
from repro.analysis.transitivity import beats_matrix, transitivity_violations
from repro.exec import Executor
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.runner import Impl

CONDITION = NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=1)
QUICK = ExperimentConfig(duration_s=10.0, trials=2)


def test_fix_table_covers_paper_cases():
    keys = {(f.stack, f.cca) for f in FIXES}
    assert keys == {
        ("chromium", "cubic"),
        ("mvfst", "bbr"),
        ("xquic", "bbr"),
        ("quiche", "cubic"),
        ("xquic", "cubic"),
    }
    assert ("xquic", "reno") in UNFIXED and ("neqo", "cubic") in UNFIXED


def test_fix_loc_matches_table4():
    by_key = {(f.stack, f.cca): f for f in FIXES}
    assert by_key[("chromium", "cubic")].loc == 1
    assert by_key[("mvfst", "bbr")].loc == 2
    assert by_key[("xquic", "bbr")].loc == 2
    assert by_key[("quiche", "cubic")].loc == 14
    assert by_key[("xquic", "cubic")].loc is None


def test_evaluate_fix_produces_before_and_after(fresh_executor):
    case = next(f for f in FIXES if f.stack == "quiche")
    outcome = evaluate_fix(case, CONDITION, QUICK, executor=fresh_executor)
    assert outcome.before is not None and outcome.after is not None
    row = outcome.row()
    assert "conf_before" in row and "conf_after" in row


def test_xquic_cubic_verification_uses_nohystart_reference(fresh_executor):
    case = next(f for f in FIXES if f.stack == "xquic" and f.cca == "cubic")
    assert case.fixed_variant is None
    assert case.reference_variant == "nohystart"
    outcome = evaluate_fix(case, CONDITION, QUICK, executor=fresh_executor)
    assert outcome.after is not None  # verification run, not a fix


class CountingExecutor(Executor):
    """A jobs=1 executor that records the size of every ``run`` call."""

    def __init__(self, cache):
        super().__init__(cache=cache)
        self.runs = []

    def run(self, jobs, campaign="campaign"):
        jobs = list(jobs)
        self.runs.append(len(jobs))
        return super().run(jobs, campaign=campaign)


def test_all_fixes_run_as_one_campaign(fresh_cache):
    tiny = ExperimentConfig(duration_s=3.0, trials=1)
    executor = CountingExecutor(fresh_cache)
    outcomes = evaluate_all_fixes(CONDITION, tiny, executor)
    assert len(executor.runs) == 1
    assert [o.case for o in outcomes] == FIXES
    # Sliced by position, every row equals its own one-row campaign.
    for outcome in outcomes:
        alone = evaluate_fix(outcome.case, CONDITION, tiny, executor)
        for got, want in ((outcome.before, alone.before),
                          (outcome.after, alone.after)):
            assert got.impl == want.impl
            for metric in ("conformance", "conformance_t", "conformance_legacy",
                           "delta_throughput_mbps", "delta_delay_ms"):
                assert getattr(got.result, metric) == getattr(want.result, metric)


def test_beats_is_never_true_both_ways(fresh_cache):
    impls = [Impl("linux", "cubic"), Impl("quiche", "cubic"),
             Impl("msquic", "cubic"), Impl("mvfst", "bbr")]
    executor = CountingExecutor(fresh_cache)
    beats = beats_matrix(
        impls, CONDITION, ExperimentConfig(duration_s=3.0, trials=1),
        executor=executor,
    )
    # One job per unordered pair, all in one campaign.
    assert executor.runs == [len(impls) * (len(impls) - 1) // 2]
    assert not (beats & beats.T).any()
    assert not beats.diagonal().any()


def test_cwnd_time_series_shape():
    series = cwnd_time_series("quiche", "cubic", condition=CONDITION, duration_s=5.0)
    assert series.ndim == 2 and series.shape[1] == 2
    assert (series[:, 1] > 0).all()
    assert (np.diff(series[:, 0]) >= 0).all()


def test_cwnd_gain_sweep_structure(fresh_executor):
    points = cwnd_gain_sweep(
        gains=(1.5, 2.0, 3.0), condition=CONDITION, config=QUICK, executor=fresh_executor
    )
    assert [p.cwnd_gain for p in points] == [1.5, 2.0, 3.0]
    for p in points:
        assert 0 <= p.conformance <= 1
        assert p.conformance_t >= p.conformance - 1e-9


def test_sweeps_at_two_samplings_build_two_envelopes():
    """The sweep's trial keys name its sampling, so a sweep at another
    ``sample_rtts`` neither reads the first sweep's trials nor gets its
    memoized envelopes."""
    import dataclasses

    from repro.exec import sweep_trial_jobs
    from repro.harness.cache import ResultCache
    from repro.harness.envelopes import memoized_envelope

    configs = [QUICK, dataclasses.replace(
        QUICK, sampling=dataclasses.replace(QUICK.sampling, sample_rtts=5.0))]
    references = []
    for config in configs:
        executor = Executor(cache=ResultCache())
        cwnd_gain_sweep(gains=(2.0,), condition=CONDITION, config=config,
                        executor=executor)
        jobs = sweep_trial_jobs((2.0,), CONDITION, config)[:config.trials]
        references.append(memoized_envelope(
            jobs, executor.run(jobs), config.envelope))
    default, finer = references
    # Sampling every 5 RTTs instead of 10 gives about twice the points.
    assert len(finer.all_points) > 1.5 * len(default.all_points)


def test_transitivity_violation_detection():
    impls = [Impl("a", "cubic"), Impl("b", "cubic"), Impl("c", "cubic")]
    # a beats b, b beats c, but a does not beat c: one violating triple.
    beats = np.array(
        [
            [False, True, False],
            [False, False, True],
            [False, False, False],
        ]
    )
    violations = transitivity_violations(impls, beats)
    assert (impls[0], impls[1], impls[2]) in violations


def test_transitive_relation_has_no_violations():
    impls = [Impl("a", "cubic"), Impl("b", "cubic"), Impl("c", "cubic")]
    beats = np.array(
        [
            [False, True, True],
            [False, False, True],
            [False, False, False],
        ]
    )
    assert transitivity_violations(impls, beats) == []
