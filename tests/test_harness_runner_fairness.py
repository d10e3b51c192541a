"""Runner primitives and fairness matrices (light integration)."""

import numpy as np
import pytest

from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.fairness import (
    FairnessMatrix,
    bandwidth_share,
    inter_cca_matrix,
    intra_cca_matrix,
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


def test_sampled_points_cached(fresh_cache):
    kwargs = dict(
        test=Impl("quicgo", "cubic"),
        competitor=reference_impl("cubic"),
        condition=CONDITION,
        config=QUICK,
        trial=0,
        cache=fresh_cache,
    )
    a = sampled_points(**kwargs)
    misses = fresh_cache.misses
    b = sampled_points(**kwargs)
    assert fresh_cache.misses == misses
    assert (a == b).all()
    assert a.shape[1] == 2


def test_labels_do_not_change_results(fresh_cache):
    """The same physical condition must yield identical trials regardless
    of its display label (seeds derive from physical parameters)."""
    labelled = NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=1, label="x")
    bare = NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=1)
    a = sampled_points(
        Impl("quicgo", "cubic"), reference_impl("cubic"), labelled, QUICK, 0,
        cache=fresh_cache,
    )
    b = sampled_points(
        Impl("quicgo", "cubic"), reference_impl("cubic"), bare, QUICK, 0,
        cache=fresh_cache,
    )
    assert np.array_equal(a, b)


def test_trials_differ(fresh_cache):
    a = sampled_points(
        Impl("quicgo", "cubic"), reference_impl("cubic"), CONDITION, QUICK, 0,
        cache=fresh_cache,
    )
    b = sampled_points(
        Impl("quicgo", "cubic"), reference_impl("cubic"), CONDITION, QUICK, 1,
        cache=fresh_cache,
    )
    assert a.shape != b.shape or not np.allclose(a, b)


def test_bandwidth_share_bounds_and_symmetry(fresh_cache):
    share = bandwidth_share(
        Impl("quicgo", "cubic"), Impl("linux", "cubic"), CONDITION, QUICK,
        cache=fresh_cache,
    )
    assert 0.0 <= share <= 1.0


def test_aggressive_impl_takes_more(fresh_cache):
    cfg = ExperimentConfig(duration_s=15.0, trials=2)
    share = bandwidth_share(
        Impl("quiche", "cubic"), Impl("linux", "cubic"), CONDITION, cfg,
        cache=fresh_cache,
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
