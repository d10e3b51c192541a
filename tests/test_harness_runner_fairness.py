"""Runner primitives and fairness matrices (light integration)."""

import numpy as np
import pytest

from repro.exec import Executor, TrialJob, share_job
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.fairness import (
    FairnessMatrix,
    bandwidth_share,
    inter_cca_matrix,
    intra_cca_matrix,
    share_cache_key,
)
from repro.harness.runner import Impl, reference_impl, run_pair, sampled_points

CONDITION = NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=1)
QUICK = ExperimentConfig(duration_s=10.0, trials=2)


def test_impl_naming():
    assert str(Impl("quiche", "cubic")) == "quiche/cubic"
    assert str(Impl("quiche", "cubic", "fixed")) == "quiche/cubic+fixed"
    assert reference_impl("bbr") == Impl("linux", "bbr")


def test_run_pair_produces_both_flows():
    result = run_pair(
        Impl("quicgo", "cubic"), Impl("linux", "cubic"), CONDITION, 8.0, seed=1
    )
    t1, t2 = result.throughputs_mbps
    assert t1 > 0 and t2 > 0
    assert t1 + t2 == pytest.approx(10.0, rel=0.15)


def test_sampled_points_cached(fresh_executor, monkeypatch):
    """The executor caches a trial under its job key; a resubmission is
    served without simulating."""
    job = TrialJob(
        Impl("quicgo", "cubic"), reference_impl("cubic"), CONDITION, QUICK, 0
    ).to_job()
    (a,) = fresh_executor.run([job])
    assert np.array_equal(fresh_executor.cache.get(job.key), a)

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("run_pair called for a cached trial")

    monkeypatch.setattr("repro.harness.runner.run_pair", boom)
    (b,) = fresh_executor.run([job])
    assert [r.status for r in fresh_executor.last_records] == ["cached"]
    assert (a == b).all()
    assert a.shape[1] == 2


def test_labels_do_not_change_results():
    """The same physical condition must yield identical trials regardless
    of its display label (seeds derive from physical parameters)."""
    labelled = NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=1, label="x")
    bare = NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=1)
    a = sampled_points(
        Impl("quicgo", "cubic"), reference_impl("cubic"), labelled, QUICK, 0
    )
    b = sampled_points(
        Impl("quicgo", "cubic"), reference_impl("cubic"), bare, QUICK, 0
    )
    assert np.array_equal(a, b)


def test_trials_differ():
    a = sampled_points(
        Impl("quicgo", "cubic"), reference_impl("cubic"), CONDITION, QUICK, 0
    )
    b = sampled_points(
        Impl("quicgo", "cubic"), reference_impl("cubic"), CONDITION, QUICK, 1
    )
    assert a.shape != b.shape or not np.allclose(a, b)


def test_bandwidth_share_bounds_and_symmetry(fresh_executor):
    share = bandwidth_share(
        Impl("quicgo", "cubic"), Impl("linux", "cubic"), CONDITION, QUICK,
        executor=fresh_executor,
    )
    assert 0.0 <= share <= 1.0


def test_bandwidth_share_is_one_executor_run(fresh_executor, monkeypatch):
    calls = []
    run = Executor.run

    def counting(self, jobs, campaign="campaign"):
        calls.append([job.key for job in jobs])
        return run(self, jobs, campaign)

    monkeypatch.setattr(Executor, "run", counting)
    first, second = Impl("quicgo", "cubic"), Impl("linux", "cubic")
    share = bandwidth_share(first, second, CONDITION, QUICK, executor=fresh_executor)
    assert calls == [[share_cache_key(first, second, CONDITION, QUICK)]]
    (shares,) = fresh_executor.run([share_job(first, second, CONDITION, QUICK)])
    assert fresh_executor.last_records[0].status == "cached"
    assert share == float(np.mean(shares))


def test_aggressive_impl_takes_more(fresh_executor):
    cfg = ExperimentConfig(duration_s=15.0, trials=2)
    share = bandwidth_share(
        Impl("quiche", "cubic"), Impl("linux", "cubic"), CONDITION, cfg,
        executor=fresh_executor,
    )
    assert share > 0.6  # quiche's rollback makes it strongly aggressive


def test_intra_cca_matrix_structure(fresh_executor):
    matrix = intra_cca_matrix(
        "cubic",
        CONDITION,
        QUICK,
        stacks=["linux", "quicgo", "quiche"],
        executor=fresh_executor,
    )
    assert matrix.rows == ["linux-cubic", "quicgo-cubic", "quiche-cubic"]
    assert matrix.shares.shape == (3, 3)
    for i in range(3):
        assert matrix.shares[i, i] == 0.5
    assert matrix.share("quiche-cubic", "linux-cubic") > 0.5


def test_unfair_rows_detection():
    matrix = FairnessMatrix(
        rows=["a", "b"],
        cols=["a", "b"],
        shares=np.array([[0.5, 0.9], [0.1, 0.5]]),
    )
    assert matrix.unfair_rows() == ["a"]


def test_inter_cca_matrix_structure(fresh_executor):
    matrix = inter_cca_matrix(
        "bbr",
        "cubic",
        CONDITION,
        QUICK,
        row_stacks=["linux"],
        col_stacks=["linux", "quicgo"],
        executor=fresh_executor,
    )
    assert matrix.rows == ["linux-bbr"]
    assert matrix.cols == ["linux-cubic", "quicgo-cubic"]
    assert np.isfinite(matrix.shares).all()
