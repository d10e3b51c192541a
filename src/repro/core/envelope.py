"""Performance Envelope construction (§3.1–§3.2 of the paper).

A PE is built from several trials of the same measurement:

1. pool all trials' (delay, throughput) points and fix a common
   standardization so clusters are comparable across trials;
2. for a given k, cluster *each trial* with k-means and match the
   clusters across trials by centroid (Hungarian assignment);
3. each final cluster region is the *intersection* of that cluster's
   convex hulls over all trials — this is the paper's principled outlier
   removal (points from natural network variation do not recur across
   trials, so their hull area is cut away);
4. k itself is chosen by the retention-drop rule
   (:func:`repro.core.clustering.select_k`): the final PE for each k
   retains some fraction R(k) of all points, and the natural k is the
   last value before R's steepest drop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.clustering import _standardize, kmeans, match_clusters, select_k
from repro.core.geometry import (
    convex_hull,
    half_planes,
    intersect_polygons,
    points_in_polygons,
    polygon_area,
    polygon_centroid,
    polygon_stack,
    translate_polygon,
)


@dataclass(frozen=True)
class EnvelopeConfig:
    """PE construction parameters."""

    #: Fixed number of clusters; None selects k by the retention rule.
    k: Optional[int] = None
    k_max: int = 5
    kmeans_seed: int = 0
    #: Retention floor below which larger k values are rejected.
    min_retention: float = 0.05
    #: Build a single hull per trial without clustering (the legacy PE of
    #: the authors' earlier paper, used for the Conf-old comparisons).
    single_hull: bool = False

    def validate(self) -> None:
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


@dataclass
class EnvelopeCluster:
    """One final PE cluster: an intersected hull plus its member points."""

    hull: np.ndarray  # (V, 2) or empty when the intersection vanished
    points: np.ndarray  # members pooled over trials
    centroid: Optional[np.ndarray]

    @property
    def empty(self) -> bool:
        return len(self.hull) < 3

    @property
    def area(self) -> float:
        return polygon_area(self.hull)


@dataclass
class PerformanceEnvelope:
    """The final PE: a set of convex hulls on the delay-throughput plane."""

    clusters: List[EnvelopeCluster]
    all_points: np.ndarray
    k: int
    #: R(k) curve (None when k was fixed by the caller).
    retention_curve: Optional[np.ndarray] = None

    @property
    def hulls(self) -> List[np.ndarray]:
        return [c.hull for c in self.clusters if not c.empty]

    def contains(self, points: Sequence) -> np.ndarray:
        """Mask: which points fall inside the union of the PE's hulls."""
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            return np.zeros(0, dtype=bool)
        return points_in_polygons(pts, half_planes(*polygon_stack(self.hulls)))

    def retained_fraction(self) -> float:
        """Fraction of this PE's own points inside the PE (≈0.95 in the
        paper: the trial intersection removes ~5 % as outliers)."""
        if len(self.all_points) == 0:
            return 0.0
        return float(self.contains(self.all_points).mean())

    def total_area(self) -> float:
        return sum(c.area for c in self.clusters)

    def centroid(self) -> Optional[np.ndarray]:
        if len(self.all_points) == 0:
            return None
        return self.all_points.mean(axis=0)

    def translated(self, offset: Sequence) -> "PerformanceEnvelope":
        """The PE (hulls and points) shifted by ``offset`` on the plane."""
        off = np.asarray(offset, dtype=float)
        clusters = [
            EnvelopeCluster(
                hull=translate_polygon(c.hull, off) if not c.empty else c.hull,
                points=c.points + off,
                centroid=None if c.centroid is None else c.centroid + off,
            )
            for c in self.clusters
        ]
        return PerformanceEnvelope(
            clusters=clusters,
            all_points=self.all_points + off,
            k=self.k,
            retention_curve=self.retention_curve,
        )


def _clusters_for_k(
    trials: List[np.ndarray],
    scaled: List[np.ndarray],
    k: int,
    seed: int,
) -> List[EnvelopeCluster]:
    """Cluster every trial with the same k, match and intersect hulls.

    ``scaled[i]`` is ``trials[i]`` standardized, as k-means sees it.
    """
    results = [kmeans(t, k, seed=seed, standardize=False) for t in scaled]
    reference = results[0]
    # Represent centroids in original units for matching: recompute from
    # members (kmeans centroids live in standardized space).
    def original_centroids(result, trial):
        cents = np.empty((result.k, 2))
        for j in range(result.k):
            members = trial[result.labels == j]
            # Empty clusters get a huge-but-finite sentinel so Hungarian
            # matching pushes them onto whatever is left over.
            cents[j] = members.mean(axis=0) if len(members) else np.array([1e9, 1e9])
        return cents

    # One cluster per trial needs no matching.
    ref_cents = original_centroids(reference, trials[0]) if reference.k > 1 else None
    per_cluster_hulls: List[List[np.ndarray]] = [[] for _ in range(reference.k)]
    per_cluster_points: List[List[np.ndarray]] = [[] for _ in range(reference.k)]

    for trial, result in zip(trials, results):
        if result.k != reference.k:
            # A degenerate trial (fewer points than k): skip its hulls; the
            # intersection then simply ignores this trial for that k.
            continue
        mapping = (
            np.zeros(1, dtype=int)
            if ref_cents is None
            else match_clusters(ref_cents, original_centroids(result, trial))
        )
        for i in range(reference.k):
            members = trial[result.labels == mapping[i]]
            per_cluster_points[i].append(members)
            per_cluster_hulls[i].append(convex_hull(members))

    clusters: List[EnvelopeCluster] = []
    for i in range(reference.k):
        hulls = per_cluster_hulls[i]
        points = (
            np.vstack(per_cluster_points[i])
            if per_cluster_points[i]
            else np.empty((0, 2))
        )
        if hulls and all(len(h) >= 3 for h in hulls):
            final = intersect_polygons(hulls)
        else:
            final = np.empty((0, 2))
        clusters.append(
            EnvelopeCluster(
                hull=final,
                points=points,
                centroid=polygon_centroid(final) if len(final) >= 3 else (
                    points.mean(axis=0) if len(points) else None
                ),
            )
        )
    return clusters


def build_envelope(
    trials: Sequence[Sequence],
    config: EnvelopeConfig = EnvelopeConfig(),
) -> PerformanceEnvelope:
    """Build the final PE from one point cloud per trial."""
    config.validate()
    trial_arrays = [np.asarray(t, dtype=float) for t in trials if len(t) > 0]
    if not trial_arrays:
        raise ValueError("cannot build an envelope from empty trials")
    all_points = np.vstack(trial_arrays)
    # Standardized once per trial, for every k the retention rule tries.
    scaled = [_standardize(t)[0] for t in trial_arrays]

    if config.single_hull:
        clusters = _clusters_for_k(trial_arrays, scaled, 1, config.kmeans_seed)
        return PerformanceEnvelope(clusters=clusters, all_points=all_points, k=1)

    if config.k is not None:
        clusters = _clusters_for_k(
            trial_arrays, scaled, config.k, config.kmeans_seed
        )
        return PerformanceEnvelope(
            clusters=clusters, all_points=all_points, k=config.k
        )

    cache: dict[int, List[EnvelopeCluster]] = {}

    def retention(k: int) -> float:
        clusters = cache.setdefault(
            k, _clusters_for_k(trial_arrays, scaled, k, config.kmeans_seed)
        )
        pe = PerformanceEnvelope(clusters=clusters, all_points=all_points, k=k)
        return pe.retained_fraction()

    k_max = min(config.k_max, min(len(t) for t in trial_arrays))
    selection = select_k(retention, k_max=k_max, min_retention=config.min_retention)
    return PerformanceEnvelope(
        clusters=cache[selection.k],
        all_points=all_points,
        k=selection.k,
        retention_curve=selection.retention,
    )
