"""k-means clustering and the paper's IOU-based choice of k.

§3.2: a single convex hull overestimates conformance, so the point cloud
is clustered (standard k-means) and the PE becomes one hull per cluster.
The usual elbow method "was not satisfactory", so the paper selects k by
the information-retention curve: for each k, build the final PE
(per-cluster hulls intersected across trials) and compute R(k), the
fraction of all points contained in the PE.  R is strictly decreasing in
k; the natural k is the value just before R's steepest drop.

Delay (ms) and throughput (Mbps) live on different scales, so points are
standardized before distance computations; hulls are built in original
units by the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass
class KMeansResult:
    """Outcome of one k-means run."""

    centroids: np.ndarray  # (k, 2), in the input (possibly scaled) space
    labels: np.ndarray  # (n,)
    inertia: float
    k: int

    def cluster_points(self, points: np.ndarray, cluster: int) -> np.ndarray:
        return points[self.labels == cluster]


def _standardize(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = points.mean(axis=0)
    std = points.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return (points - mean) / std, mean, std


def kmeans(
    points: Sequence,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    n_init: int = 4,
    standardize: bool = True,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding, deterministic per seed.

    The ``n_init`` restarts run together as ``(n_init, n, k)`` arrays;
    each one stops at its own convergence iteration, and the first
    restart with the lowest inertia wins.  They draw from one generator
    in restart order and sum each cluster's members in point order, so
    the result equals running the restarts one after another with
    ``members.sum(axis=0) / len(members)`` updates.  (For one-column
    points numpy sums such a column pairwise, so there the centroids can
    differ from that loop in the last bit.)
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be an (N, d) array")
    n = len(pts)
    if k < 1:
        raise ValueError("k must be >= 1")
    if n == 0:
        raise ValueError("cannot cluster an empty point set")
    if n_init < 1:
        raise ValueError("n_init must be >= 1")
    k = min(k, n)
    work = _standardize(pts)[0] if standardize else np.ascontiguousarray(pts)

    if k == 1 and max_iter > 0:
        # Lloyd's first step moves the one centroid to the mean, and the
        # second changes no label: every restart ends here.
        centroids = work.sum(axis=0, keepdims=True) / n
        inertia = float(((work - centroids) ** 2).sum())
        return KMeansResult(
            centroids=centroids, labels=np.zeros(n, dtype=int), inertia=inertia, k=1
        )

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(work, k, n_init, rng)
    labels = np.zeros((n_init, n), dtype=int)
    active = np.ones(n_init, dtype=bool)
    d = work.shape[1]
    # Cluster j of restart r is bin r * k + j; its column c is bin
    # (r * k + j) * d + c of one bincount over every restart at once.
    offsets = np.arange(0, n_init * k, k)[:, None]
    columns = np.arange(d)
    weights = np.broadcast_to(work, (n_init, n, d)).ravel()
    for iteration in range(max_iter):
        distances = (
            (work[None, :, None, :] - centroids[:, None, :, :]) ** 2
        ).sum(axis=3)
        new_labels = distances.argmin(axis=2)
        if iteration > 0:
            # A restart whose labels stand still has converged: freeze it.
            active &= (new_labels != labels).any(axis=1)
            if not active.any():
                break
        bins = (new_labels + offsets).ravel()
        counts = np.bincount(bins, minlength=n_init * k)[:, None]
        # bincount adds each bin's weights in index order: the order of
        # ``members.sum(axis=0)`` over a cluster's (m, d) member rows.
        sums = np.bincount(
            (bins[:, None] * d + columns).ravel(),
            weights=weights,
            minlength=n_init * k * d,
        ).reshape(-1, d)
        if counts.all():
            updated = sums / counts
        else:
            # Re-seed an empty cluster at the farthest point.
            far = work[distances.min(axis=2).argmax(axis=1)].repeat(k, axis=0)
            updated = np.where(counts > 0, sums / np.maximum(counts, 1), far)
        labels[active] = new_labels[active]
        centroids[active] = updated.reshape(n_init, k, d)[active]

    restarts = np.arange(n_init)
    inertia = (
        (work[None] - centroids[restarts[:, None], labels]) ** 2
    ).reshape(n_init, -1).sum(axis=1).tolist()
    best = 0
    for restart in range(1, n_init):
        if inertia[restart] < inertia[best]:
            best = restart
    return KMeansResult(
        centroids=centroids[best], labels=labels[best], inertia=inertia[best], k=k
    )


def _kmeans_pp_init(
    points: np.ndarray, k: int, n_init: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeds of ``n_init`` restarts, ``(n_init, k, d)``.

    Restart after restart, the generator yields one ``integers(n)`` for
    the first seed and one ``random()`` per further seed, picked by
    inverse CDF exactly as ``rng.choice(n, p=probs)`` picks.  Those
    draws do not depend on the points, so they are taken up front and
    the restarts seed together.  A restart whose points are all taken
    before its k-th seed (``total <= 0``) draws its remaining seeds
    uniformly instead; the generator is then rewound to that restart,
    and the restarts after it are seeded again from where it stopped.
    """
    n = len(points)
    state = rng.bit_generator.state
    firsts = np.empty(n_init, dtype=int)
    uniforms = np.empty((n_init, k - 1))
    for restart in range(n_init):
        firsts[restart] = rng.integers(n)
        uniforms[restart] = rng.random(k - 1)
    seeds = np.empty((n_init, k, points.shape[1]))
    seeds[:, 0] = points[firsts]
    closest = ((points - seeds[:, :1]) ** 2).sum(axis=2)
    exhausted = np.full(n_init, k)
    # An exhausted restart divides 0 by 0; its picks are replaced below.
    with np.errstate(invalid="ignore"):
        for j in range(1, k):
            total = closest.sum(axis=1)
            if (total <= 0).any():
                exhausted[(total <= 0) & (exhausted == k)] = j
            cdf = (closest / total[:, None]).cumsum(axis=1)
            cdf /= cdf[:, -1:]
            # searchsorted(cdf, u, side="right") for every restart at once.
            picks = (cdf <= uniforms[:, j - 1, None]).sum(axis=1)
            seeds[:, j] = points[picks]
            closest = np.minimum(
                closest, ((points - seeds[:, j, None]) ** 2).sum(axis=2)
            )

    stuck = np.flatnonzero(exhausted < k)
    if len(stuck):
        restart = int(stuck[0])
        j = int(exhausted[restart])
        rng.bit_generator.state = state
        for _ in range(restart):
            rng.integers(n)
            rng.random(k - 1)
        rng.integers(n)
        rng.random(j - 1)
        seeds[restart, j:] = points[rng.integers(n, size=k - j)]
        if restart + 1 < n_init:
            seeds[restart + 1:] = _kmeans_pp_init(points, k, n_init - restart - 1, rng)
    return seeds


def linear_sum_assignment(cost) -> list[int]:
    """Minimum-cost assignment of each row of ``cost`` to its own column.

    Returns ``cols`` with row ``i`` assigned to column ``cols[i]``.
    ``cost`` is an ``(n, m)`` matrix with ``n <= m``.  This is a port of
    SciPy's ``linear_sum_assignment`` (Crouse's shortest augmenting
    path, ``rectangular_lsap.cpp``) that keeps its operation order, so
    every float and every tie comes out the same: ``remaining`` is
    filled in reverse (a constant matrix gives the identity), an
    equal-cost column that is still unassigned wins a tie, and the dual
    updates run in the same order.  Raises :class:`ValueError` on NaN or
    ``-inf`` costs and when no finite assignment exists, as SciPy does.
    """
    matrix = np.asarray(cost, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    nr, nc = matrix.shape
    if nr > nc:
        raise ValueError("cost matrix must not have more rows than columns")
    # NaN and -inf are the two values not greater than -inf.
    if not (matrix > -math.inf).all():
        raise ValueError("matrix contains invalid numeric entries")
    rows = matrix.tolist()
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # Shortest augmenting path from row ``cur`` to a free column.
        shortest = [math.inf] * nc
        in_rows = [False] * nr
        in_cols = [False] * nc
        remaining = list(range(nc - 1, -1, -1))
        left = nc
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            in_rows[i] = True
            row, u_i = rows[i], u[i]
            index = -1
            lowest = math.inf
            for it in range(left):
                j = remaining[it]
                r = min_val + row[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            in_cols[j] = True
            left -= 1
            remaining[index] = remaining[left]

        u[cur] += min_val
        for i in range(nr):
            if in_rows[i] and i != cur:
                u[i] += min_val - shortest[col4row[i]]
        for j in range(nc):
            if in_cols[j]:
                v[j] -= min_val - shortest[j]
        # Augment along the path back to ``cur``.
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def match_clusters(
    reference_centroids: np.ndarray, other_centroids: np.ndarray
) -> np.ndarray:
    """Optimal assignment of ``other`` clusters onto reference clusters.

    Returns ``mapping`` such that other cluster ``mapping[i]`` corresponds
    to reference cluster ``i`` (Hungarian assignment on squared centroid
    distances, :func:`linear_sum_assignment`).  Both inputs must have the
    same k.
    """
    if reference_centroids.shape != other_centroids.shape:
        raise ValueError("centroid arrays must have identical shapes")
    cost = (
        (reference_centroids[:, None, :] - other_centroids[None, :, :]) ** 2
    ).sum(axis=2)
    return np.array(linear_sum_assignment(cost), dtype=int)


@dataclass
class KSelection:
    """Outcome of the IOU-drop rule."""

    k: int
    #: R(k) for each candidate k, indexed by k-1.
    retention: np.ndarray
    candidates: np.ndarray


def select_k(
    retention_fn: Callable[[int], float],
    k_max: int = 6,
    min_retention: float = 0.0,
) -> KSelection:
    """Pick k by the steepest-drop rule on the retention curve R(k).

    ``retention_fn(k)`` must return the fraction of points the final PE
    with k clusters retains (the paper's IOU).  The chosen k is the value
    *before* the largest drop R(k) - R(k+1); when the curve is flat the
    smallest k wins.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    ks = np.arange(1, k_max + 1)
    retention = np.array([retention_fn(int(k)) for k in ks], dtype=float)
    if k_max == 1:
        return KSelection(k=1, retention=retention, candidates=ks)
    drops = retention[:-1] - retention[1:]
    best_drop = float(drops.max())
    if best_drop <= 0.05:
        # Essentially flat: no cluster structure beyond k = 1.
        chosen = 1
    else:
        # "The value of k before the drop": the first k whose drop is
        # comparable to the steepest one.  Taking the global argmax alone
        # overshoots when an over-split PE still decays further.
        significant = np.nonzero(drops >= 0.5 * best_drop)[0]
        chosen = int(ks[significant[0]])
    # Guard: never choose a k whose PE retains almost nothing.
    while chosen > 1 and retention[chosen - 1] < min_retention:
        chosen -= 1
    return KSelection(k=chosen, retention=retention, candidates=ks)
