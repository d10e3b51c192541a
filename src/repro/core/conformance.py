"""Conformance metrics (§3.1, §3.3).

*Conformance* weighs the overlap of two Performance Envelopes by the data
points it contains:

    Conformance = #points in the overlapping region
                  / #points in the union of the two PEs

so identical envelopes score 1 and disjoint envelopes score 0.

*Conformance-T* is the maximum conformance achievable by translating the
test PE on the delay-throughput plane; the optimal translation, reported
as (Δ-throughput, Δ-delay) with the sign convention "test minus
reference", hints at which knob (cwnd vs pacing rate) is mistuned:
a cwnd overshoot raises both throughput and delay, a pacing overshoot
raises throughput alone (§3.3).

*conformance_legacy* reimplements the authors' earlier metric [35]
(single convex hull, 5 % centroid-distance outlier trimming) for the
"Conf-old" columns of Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.core.envelope import (
    EnvelopeConfig,
    PerformanceEnvelope,
    build_envelope,
)
from repro.core.geometry import (
    convex_hull,
    half_planes,
    points_in_convex_polygon,
    points_in_half_planes,
)


def conformance(
    test: PerformanceEnvelope, reference: PerformanceEnvelope
) -> float:
    """Point-weighted overlap of the two envelopes, in [0, 1]."""
    points = np.vstack([test.all_points, reference.all_points])
    if len(points) == 0:
        return 0.0
    return _overlap(test.contains(points), reference.contains(points))


def _overlap(in_test: np.ndarray, in_ref: np.ndarray) -> float:
    """#points inside both envelopes / #points inside either (0 if none)."""
    union = in_test | in_ref
    denom = int(union.sum())
    if denom == 0:
        return 0.0
    return float((in_test & in_ref).sum() / denom)


def conformance_legacy(
    test_points: Sequence,
    reference_points: Sequence,
    trim_fraction: float = 0.05,
) -> float:
    """The earlier (IMC'22) definition: one hull, 5 % centroid trimming."""
    test = _trim_outliers(np.asarray(test_points, dtype=float), trim_fraction)
    ref = _trim_outliers(np.asarray(reference_points, dtype=float), trim_fraction)
    hull_test = convex_hull(test)
    hull_ref = convex_hull(ref)
    points = np.vstack([test, ref])
    if len(points) == 0 or len(hull_test) < 3 or len(hull_ref) < 3:
        return 0.0
    return _overlap(
        points_in_convex_polygon(points, hull_test),
        points_in_convex_polygon(points, hull_ref),
    )


def _trim_outliers(points: np.ndarray, fraction: float) -> np.ndarray:
    if len(points) == 0 or fraction <= 0:
        return points
    centroid = points.mean(axis=0)
    # Normalize axes so "distance from centroid" is scale-free.
    std = points.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    dist = (((points - centroid) / std) ** 2).sum(axis=1)
    keep = max(int(np.ceil(len(points) * (1 - fraction))), 1)
    order = np.argsort(dist)
    return points[order[:keep]]


@dataclass
class TranslationResult:
    """Outcome of the Conformance-T search."""

    conformance_t: float
    #: Translation applied to the test PE, (Δdelay_ms, Δthroughput_mbps).
    translation: Tuple[float, float]

    @property
    def delta_delay_ms(self) -> float:
        """Test-minus-reference delay offset (paper's Δ-delay)."""
        return -self.translation[0]

    @property
    def delta_throughput_mbps(self) -> float:
        """Test-minus-reference throughput offset (paper's Δ-tput)."""
        return -self.translation[1]


def conformance_post_translation(
    test: PerformanceEnvelope,
    reference: PerformanceEnvelope,
    refine_iters: int = 40,
) -> TranslationResult:
    """Maximize conformance over translations of the test PE.

    The objective is piecewise constant (points crossing hull edges), so
    gradient-free search is used: seed candidates from every pairing of
    test/reference cluster centroids (plus the overall mean shift and the
    identity), then refine the best seeds with a shrinking pattern
    search.
    """
    conformance_at = _translation_scorer(test, reference)
    seeds = _candidate_translations(test, reference)
    scored = [((dx, dy), conformance_at((dx, dy))) for dx, dy in seeds]
    scored.sort(key=lambda item: item[1], reverse=True)
    best_t, best_score = scored[0]

    # Pattern-search refinement around the strongest seeds.
    spread = reference.all_points.std(axis=0) + test.all_points.std(axis=0)
    step0 = np.maximum(spread / 2, 1e-6)
    for seed_t, seed_score in scored[:3]:
        t = np.asarray(seed_t, dtype=float)
        score = seed_score
        step = step0.copy()
        for _ in range(refine_iters):
            improved = False
            for axis in (0, 1):
                for direction in (+1, -1):
                    candidate = t.copy()
                    candidate[axis] += direction * step[axis]
                    cand_score = conformance_at(candidate)
                    if cand_score > score:
                        t, score = candidate, cand_score
                        improved = True
            if not improved:
                step /= 2
                if (step < 1e-4 * step0).all():
                    break
        if score > best_score:
            best_score, best_t = score, (float(t[0]), float(t[1]))

    return TranslationResult(
        conformance_t=best_score,
        translation=(float(best_t[0]), float(best_t[1])),
    )


def _translation_scorer(
    test: PerformanceEnvelope, reference: PerformanceEnvelope
) -> Callable[[Sequence], float]:
    """``score(offset)``, equal to ``conformance(test.translated(offset),
    reference)``.

    The reference stays put during the search, so its hulls' half-planes
    and the membership of its own points are computed once.  Each call
    moves only the test's points and non-empty hulls, and repeats the
    per-point arithmetic of :func:`conformance` on them exactly.
    """
    ref_points = reference.all_points
    ref_planes = [half_planes(hull) for hull in reference.hulls]

    def inside(points: np.ndarray, planes) -> np.ndarray:
        mask = np.zeros(len(points), dtype=bool)
        for plane in planes:
            mask |= points_in_half_planes(points, plane)
        return mask

    ref_own = inside(ref_points, ref_planes)

    def score(offset: Sequence) -> float:
        off = np.asarray(offset, dtype=float)
        moved = test.all_points + off
        points = np.vstack([moved, ref_points])
        if len(points) == 0:
            return 0.0
        in_test = inside(points, [half_planes(h + off) for h in test.hulls])
        return _overlap(in_test, np.concatenate([inside(moved, ref_planes), ref_own]))

    return score


def _candidate_translations(
    test: PerformanceEnvelope, reference: PerformanceEnvelope
) -> List[Tuple[float, float]]:
    candidates: List[Tuple[float, float]] = [(0.0, 0.0)]
    tc = test.centroid()
    rc = reference.centroid()
    if tc is not None and rc is not None:
        candidates.append((float(rc[0] - tc[0]), float(rc[1] - tc[1])))
    for ct in test.clusters:
        if ct.centroid is None:
            continue
        for cr in reference.clusters:
            if cr.centroid is None:
                continue
            delta = cr.centroid - ct.centroid
            candidates.append((float(delta[0]), float(delta[1])))
    return candidates


@dataclass
class ConformanceResult:
    """Full metric set for one (stack, CCA, network) measurement."""

    conformance: float
    conformance_t: float
    conformance_legacy: float
    delta_throughput_mbps: float
    delta_delay_ms: float
    test_envelope: PerformanceEnvelope
    reference_envelope: PerformanceEnvelope

    def summary_row(self) -> dict:
        return {
            "conf": round(self.conformance, 3),
            "conf_t": round(self.conformance_t, 3),
            "conf_old": round(self.conformance_legacy, 3),
            "delta_tput_mbps": round(self.delta_throughput_mbps, 2),
            "delta_delay_ms": round(self.delta_delay_ms, 2),
            "k_test": self.test_envelope.k,
            "k_ref": self.reference_envelope.k,
        }


def evaluate_conformance(
    test_trials: Sequence[Sequence],
    reference_trials: Sequence[Sequence],
    config: EnvelopeConfig = EnvelopeConfig(),
) -> ConformanceResult:
    """End-to-end: trials of sampled points -> full conformance metrics."""
    test_pe = build_envelope(test_trials, config)
    ref_pe = build_envelope(reference_trials, config)
    conf = conformance(test_pe, ref_pe)
    translation = conformance_post_translation(test_pe, ref_pe)
    legacy = conformance_legacy(
        np.vstack([np.asarray(t, dtype=float) for t in test_trials]),
        np.vstack([np.asarray(t, dtype=float) for t in reference_trials]),
    )
    return ConformanceResult(
        conformance=conf,
        conformance_t=max(translation.conformance_t, conf),
        conformance_legacy=legacy,
        delta_throughput_mbps=translation.delta_throughput_mbps,
        delta_delay_ms=translation.delta_delay_ms,
        test_envelope=test_pe,
        reference_envelope=ref_pe,
    )
