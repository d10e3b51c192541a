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

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
    """Lloyd's algorithm with k-means++ seeding, deterministic per seed."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be an (N, d) array")
    n = len(pts)
    if k < 1:
        raise ValueError("k must be >= 1")
    if n == 0:
        raise ValueError("cannot cluster an empty point set")
    k = min(k, n)
    work = pts
    if standardize:
        work, _, _ = _standardize(pts)

    best: Optional[KMeansResult] = None
    rng = np.random.default_rng(seed)
    for _ in range(n_init):
        centroids = _kmeans_pp_init(work, k, rng)
        labels = np.zeros(n, dtype=int)
        for _ in range(max_iter):
            distances = ((work[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            new_labels = distances.argmin(axis=1)
            if (new_labels == labels).all() and _ > 0:
                break
            labels = new_labels
            for j in range(k):
                members = work[labels == j]
                if len(members):
                    centroids[j] = members.mean(axis=0)
                else:
                    # Re-seed an empty cluster at the farthest point.
                    far = distances.min(axis=1).argmax()
                    centroids[j] = work[far]
        inertia = float(
            ((work - centroids[labels]) ** 2).sum()
        )
        if best is None or inertia < best.inertia:
            best = KMeansResult(
                centroids=centroids.copy(), labels=labels.copy(), inertia=inertia, k=k
            )
    assert best is not None
    return best


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    closest = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centroids[j:] = points[rng.integers(n, size=k - j)]
            break
        probs = closest / total
        centroids[j] = points[rng.choice(n, p=probs)]
        dist = ((points - centroids[j]) ** 2).sum(axis=1)
        closest = np.minimum(closest, dist)
    return centroids


def match_clusters(
    reference_centroids: np.ndarray, other_centroids: np.ndarray
) -> np.ndarray:
    """Optimal assignment of ``other`` clusters onto reference clusters.

    Returns ``mapping`` such that other cluster ``mapping[i]`` corresponds
    to reference cluster ``i`` (Hungarian algorithm on centroid
    distances).  Both inputs must have the same k.
    """
    # Imported here, not at module level: SciPy's optimize package costs
    # about half a second to import, and only this function needs it.
    from scipy.optimize import linear_sum_assignment

    if reference_centroids.shape != other_centroids.shape:
        raise ValueError("centroid arrays must have identical shapes")
    cost = (
        (reference_centroids[:, None, :] - other_centroids[None, :, :]) ** 2
    ).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    mapping = np.empty(len(reference_centroids), dtype=int)
    mapping[rows] = cols
    return mapping


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
