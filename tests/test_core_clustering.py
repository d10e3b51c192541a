"""k-means, cluster matching, and the IOU k-selection rule."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.clustering import (
    KMeansResult,
    _kmeans_pp_init,
    kmeans,
    linear_sum_assignment,
    match_clusters,
    select_k,
)


def two_blobs(n=50, separation=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal((0, 0), 0.5, size=(n, 2))
    b = rng.normal((separation, separation), 0.5, size=(n, 2))
    return np.vstack([a, b])


class TestKMeans:
    def test_separates_two_blobs(self):
        pts = two_blobs()
        result = kmeans(pts, 2, seed=1)
        labels_a = set(result.labels[:50])
        labels_b = set(result.labels[50:])
        assert len(labels_a) == 1 and len(labels_b) == 1
        assert labels_a != labels_b

    def test_k_one_groups_everything(self):
        pts = two_blobs()
        result = kmeans(pts, 1)
        assert (result.labels == 0).all()

    def test_labels_partition_points(self):
        pts = two_blobs()
        result = kmeans(pts, 3, seed=2)
        assert len(result.labels) == len(pts)
        assert set(result.labels) <= {0, 1, 2}

    def test_k_capped_at_n(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        result = kmeans(pts, 5)
        assert result.k == 2

    def test_deterministic_per_seed(self):
        pts = two_blobs(seed=3)
        a = kmeans(pts, 2, seed=7)
        b = kmeans(pts, 2, seed=7)
        assert (a.labels == b.labels).all()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 2)), 2)
        with pytest.raises(ValueError):
            kmeans(two_blobs(), 0)

    @given(st.integers(1, 5), st.integers(6, 30))
    @settings(max_examples=30, deadline=None)
    def test_inertia_non_increasing_in_k(self, k, n):
        rng = np.random.default_rng(n)
        pts = rng.normal(size=(n, 2))
        inertias = [kmeans(pts, kk, seed=0).inertia for kk in range(1, k + 1)]
        for earlier, later in zip(inertias, inertias[1:]):
            assert later <= earlier + 1e-6

    def test_cluster_points_accessor(self):
        pts = two_blobs()
        result = kmeans(pts, 2, seed=1)
        total = sum(len(result.cluster_points(pts, j)) for j in range(2))
        assert total == len(pts)


class TestMatchClusters:
    def test_identity_match(self):
        cents = np.array([[0.0, 0.0], [10.0, 10.0]])
        mapping = match_clusters(cents, cents)
        assert mapping.tolist() == [0, 1]

    def test_permuted_match(self):
        ref = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 0.0]])
        other = ref[[2, 0, 1]]
        mapping = match_clusters(ref, other)
        assert mapping.tolist() == [1, 2, 0]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            match_clusters(np.zeros((2, 2)), np.zeros((3, 2)))


def sentinel_costs(k, rng):
    """``match_clusters``'s cost matrix with empty clusters on both sides.

    ``build_envelope`` gives an empty cluster the centroid (1e9, 1e9), so
    a trial with several empty clusters has tied sentinel columns.
    """
    ref = rng.normal((40.0, 5.0), (20.0, 3.0), size=(k, 2))
    other = ref[rng.permutation(k)] + rng.normal(0.0, 2.0, size=(k, 2))
    ref[rng.random(k) < 0.2] = 1e9
    other[rng.random(k) < 0.4] = 1e9
    return ((ref[:, None, :] - other[None, :, :]) ** 2).sum(axis=2)


def cost_families(k, seed):
    """One matrix of each fixed family, ``k`` × ``k``."""
    rng = np.random.default_rng([k, seed])
    yield rng.random((k, k))
    yield rng.integers(0, 3, size=(k, k)).astype(float)  # many ties
    yield np.full((k, k), float(seed))
    yield sentinel_costs(k, rng)


@pytest.fixture(scope="module")
def scipy_assignment():
    """SciPy's solver: the reference the in-tree port must equal."""
    optimize = pytest.importorskip("scipy.optimize")

    def assign(cost):
        rows, cols = optimize.linear_sum_assignment(cost)
        assert rows.tolist() == list(range(len(cost)))
        return cols.tolist()

    return assign


costs = st.integers(1, 7).flatmap(
    lambda n: st.integers(n, 7).flatmap(
        lambda m: st.lists(
            st.lists(
                st.one_of(
                    st.integers(0, 3).map(float),
                    st.floats(0.0, 1e3, allow_nan=False),
                    st.just(1e18),
                ),
                min_size=m, max_size=m,
            ),
            min_size=n, max_size=n,
        )
    )
)


class TestAssignmentMatchesSciPy:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_fixed_families(self, k, scipy_assignment):
        for seed in range(40):
            for cost in cost_families(k, seed):
                assert linear_sum_assignment(cost) == scipy_assignment(cost)

    @given(cost=costs)
    @settings(max_examples=300, deadline=None)
    def test_random_matrices(self, cost, scipy_assignment):
        assert linear_sum_assignment(cost) == scipy_assignment(cost)

    @pytest.mark.parametrize(
        "cost",
        [
            [[np.nan, 1.0], [1.0, 2.0]],
            [[-np.inf, 1.0], [1.0, 2.0]],
            [[np.inf, np.inf], [1.0, 2.0]],  # a row with no finite cost
            [[1.0, np.inf], [2.0, np.inf]],  # two rows, one finite column
        ],
    )
    def test_invalid_costs_raise_like_scipy(self, cost, scipy_assignment):
        with pytest.raises(ValueError):
            scipy_assignment(np.array(cost))
        with pytest.raises(ValueError):
            linear_sum_assignment(cost)


class TestAssignment:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_constant_matrix_gives_identity(self, k):
        assert linear_sum_assignment(np.ones((k, k))) == list(range(k))

    def test_picks_the_cheaper_permutation(self):
        assert linear_sum_assignment([[4.0, 1.0, 3.0],
                                      [2.0, 0.0, 5.0],
                                      [3.0, 2.0, 2.0]]) == [1, 0, 2]

    def test_rectangular(self):
        assert linear_sum_assignment([[5.0, 1.0, 9.0]]) == [1]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            linear_sum_assignment(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            linear_sum_assignment(np.zeros(3))


class TestSelectK:
    def test_steepest_drop_selected(self):
        retention = {1: 0.95, 2: 0.93, 3: 0.50, 4: 0.45, 5: 0.40}
        selection = select_k(lambda k: retention[k], k_max=5)
        assert selection.k == 2  # drop is between 2 and 3

    def test_flat_curve_prefers_one(self):
        selection = select_k(lambda k: 0.9, k_max=5)
        assert selection.k == 1

    def test_min_retention_guard(self):
        retention = {1: 0.9, 2: 0.02, 3: 0.01, 4: 0.0}
        selection = select_k(lambda k: retention[k], k_max=4, min_retention=0.05)
        assert selection.k == 1

    def test_k_max_one(self):
        selection = select_k(lambda k: 0.9, k_max=1)
        assert selection.k == 1
        assert len(selection.retention) == 1

    def test_invalid_k_max(self):
        with pytest.raises(ValueError):
            select_k(lambda k: 1.0, k_max=0)

    def test_retention_curve_recorded(self):
        selection = select_k(lambda k: 1.0 / k, k_max=4)
        assert selection.retention.tolist() == pytest.approx([1.0, 0.5, 1 / 3, 0.25])


def loop_seeds(work, k, rng, seen):
    """One restart's k-means++ seeds, picked by ``rng.choice``."""
    n = len(work)
    centroids = np.empty((k, work.shape[1]))
    centroids[0] = work[rng.integers(n)]
    closest = ((work - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            seen.add("exhausted")
            centroids[j:] = work[rng.integers(n, size=k - j)]
            break
        centroids[j] = work[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, ((work - centroids[j]) ** 2).sum(axis=1))
    return centroids


def loop_kmeans(points, k, seed=0, max_iter=100, n_init=4, standardize=True, seen=None):
    """The restart-after-restart k-means that :func:`kmeans` batches,
    kept as the reference: k-means++ picks by ``rng.choice`` and a
    per-cluster centroid loop.  ``seen`` collects which rare branches
    ran ("exhausted" seeding, "empty" cluster re-seed)."""
    seen = set() if seen is None else seen
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    k = min(k, n)
    work = pts
    if standardize:
        mean, std = pts.mean(axis=0), pts.std(axis=0)
        work = (pts - mean) / np.where(std < 1e-12, 1.0, std)
    best = None
    rng = np.random.default_rng(seed)
    for _ in range(n_init):
        centroids = loop_seeds(work, k, rng, seen)
        labels = np.zeros(n, dtype=int)
        for iteration in range(max_iter):
            distances = ((work[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_labels = distances.argmin(axis=1)
            if (new_labels == labels).all() and iteration > 0:
                break
            labels = new_labels
            for j in range(k):
                members = work[labels == j]
                if len(members):
                    centroids[j] = members.sum(axis=0) / len(members)
                else:
                    seen.add("empty")
                    centroids[j] = work[distances.min(axis=1).argmax()]
        inertia = float(((work - centroids[labels]) ** 2).sum())
        if best is None or inertia < best.inertia:
            best = KMeansResult(centroids.copy(), labels.copy(), inertia, k)
    return best


def assert_same_kmeans(expected, actual):
    assert actual.k == expected.k
    assert np.array_equal(actual.centroids, expected.centroids)
    assert np.array_equal(actual.labels, expected.labels)
    assert actual.labels.dtype == expected.labels.dtype
    assert actual.inertia == expected.inertia


def clouds(d):
    """(n, d) clouds: grid points that repeat and line up, or free floats
    over several magnitudes; n from 1, so below, at and above k."""
    coordinate = st.one_of(
        st.integers(-2, 2).map(float),
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    )
    return st.lists(
        st.lists(coordinate, min_size=d, max_size=d), min_size=1, max_size=30
    ).map(lambda rows: np.array(rows, dtype=float))


class TestLoopReference:
    """:func:`kmeans` against the loop it batches: equal arrays and an
    equal inertia, because the arithmetic and the draws are the same."""

    @given(clouds(2), st.integers(1, 6), st.integers(0, 50), st.booleans())
    @example(np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 1.0]]), 3, 0, True)  # n == k
    @example(np.array([[0.0, 0.0], [1.0, 2.0]]), 5, 1, False)  # n < k
    @settings(max_examples=150, deadline=None)
    def test_two_columns(self, points, k, seed, standardize):
        assert_same_kmeans(
            loop_kmeans(points, k, seed, standardize=standardize),
            kmeans(points, k, seed, standardize=standardize),
        )

    @given(st.sampled_from([4, 9]).flatmap(clouds), st.integers(1, 6), st.integers(0, 50))
    @settings(max_examples=100, deadline=None)
    def test_wide_rows_unstandardized(self, points, k, seed):
        # core.peer clusters conformance-matrix rows this way.
        assert_same_kmeans(
            loop_kmeans(points, k, seed, standardize=False),
            kmeans(points, k, seed, standardize=False),
        )

    @pytest.mark.parametrize("max_iter", [0, 1, 2, 3])
    def test_capped_iterations(self, max_iter):
        points = two_blobs(n=20, separation=1.0, seed=4)
        for k in (1, 2, 4):
            assert_same_kmeans(
                loop_kmeans(points, k, 3, max_iter=max_iter),
                kmeans(points, k, 3, max_iter=max_iter),
            )

    def test_all_identical_points(self):
        """Every seed after the first meets ``total <= 0``."""
        points = np.full((7, 2), 3.5)
        for k in range(1, 8):
            seen = set()
            expected = loop_kmeans(points, k, 1, seen=seen)
            assert ("exhausted" in seen) == (k > 1)
            assert_same_kmeans(expected, kmeans(points, k, 1))

    def test_exhausted_restart_then_empty_cluster_reseed(self):
        """Two distinct points and k = 3: each restart runs out of
        points at its third seed and draws it uniformly, so it can land
        on a taken point; that cluster empties and is re-seeded."""
        points = np.array([[0.0, 0.0]] * 5 + [[1.0, 2.0]] * 4)
        seen = set()
        for seed in range(20):
            assert_same_kmeans(
                loop_kmeans(points, 3, seed, seen=seen), kmeans(points, 3, seed)
            )
        assert seen == {"exhausted", "empty"}

    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_exhausted_seeding_draws_in_restart_order(self, k):
        """Restarts that run out of points draw their last seeds at their
        own place in the generator's stream: the seeds, and the state
        left behind, equal seeding restart after restart."""
        # k - 1 distinct points, repeated: every restart runs out.
        distinct = np.random.default_rng(k).normal(size=(k - 1, 2))
        points = distinct[np.arange(3 * k) % (k - 1)]
        for seed in range(10):
            seen = set()
            looped = np.random.default_rng(seed)
            expected = np.stack([loop_seeds(points, k, looped, seen) for _ in range(4)])
            assert seen == {"exhausted"}
            batched = np.random.default_rng(seed)
            assert np.array_equal(_kmeans_pp_init(points, k, 4, batched), expected)
            assert batched.bit_generator.state == looped.bit_generator.state

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.floats(0.0, 0.9))
    @settings(max_examples=200, deadline=None)
    def test_inverse_cdf_pick_is_rng_choice(self, n, seed, zeros):
        """The seeding's pick consumes the draw ``rng.choice(n, p=...)``
        consumes and picks the same index, and leaves the generator in
        the same state."""
        weights = np.random.default_rng(seed).random(n) ** 3
        weights[: int(zeros * n)] = 0.0
        if weights.sum() <= 0:
            weights[-1] = 1.0
        probs = weights / weights.sum()
        by_choice = np.random.default_rng(seed)
        by_pick = np.random.default_rng(seed)
        # Interleave an integers() draw, as each restart's first seed
        # does: it shares the generator's buffered 32-bit half.
        assert by_choice.integers(n) == by_pick.integers(n)
        chosen = by_choice.choice(n, p=probs)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        picked = int((cdf <= by_pick.random()).sum())
        assert picked == chosen
        assert by_pick.bit_generator.state == by_choice.bit_generator.state
        assert by_pick.integers(1 << 30) == by_choice.integers(1 << 30)
