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
from typing import Callable, Dict, Generator, List, Sequence, Tuple

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
    points_in_polygons,
    polygon_stack,
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


#: Pattern-search moves in the order they are tried: ±step along axis 0,
#: then along axis 1.
_MOVE_AXES = np.array([0, 0, 1, 1])
_MOVE_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


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
    search.  The seeds are scored in one batch, and the refinements run
    side by side, each round scoring every refinement's pending
    candidates in one batch.
    """
    conformance_at = _translation_scorer(test, reference)
    seeds = _candidate_translations(test, reference)
    scored = sorted(
        zip(seeds, conformance_at(seeds)), key=lambda item: item[1], reverse=True
    )
    best_t, best_score = scored[0]

    # Pattern-search refinement around the strongest seeds.
    spread = reference.all_points.std(axis=0) + test.all_points.std(axis=0)
    step0 = np.maximum(spread / 2, 1e-6)
    searches = [
        _pattern_search(np.asarray(seed_t, dtype=float), seed_score, step0, refine_iters)
        for seed_t, seed_score in scored[:3]
    ]
    for t, score in _run_side_by_side(searches, conformance_at):
        if score > best_score:
            best_score, best_t = score, (float(t[0]), float(t[1]))

    return TranslationResult(
        conformance_t=best_score,
        translation=(float(best_t[0]), float(best_t[1])),
    )


def _pattern_search(
    t: np.ndarray, score: float, step0: np.ndarray, iters: int
) -> Generator[np.ndarray, List[float], Tuple[np.ndarray, float]]:
    """One shrinking pattern search from ``t``, as a generator.

    It yields the candidates it needs scored next, a (B, 2) array, and
    takes their scores back from ``send``; it returns the final
    ``(t, score)``.  Each iteration tries ±step along each axis in turn
    and moves as soon as one scores higher; after a move only the
    candidates still to try are rebuilt from the new ``t``.
    """
    step = step0.copy()
    for _ in range(iters):
        improved = False
        move = 0
        while move < len(_MOVE_AXES):
            axes = _MOVE_AXES[move:]
            candidates = np.repeat(t[None], len(axes), axis=0)
            candidates[np.arange(len(axes)), axes] += _MOVE_SIGNS[move:] * step[axes]
            scores = yield candidates
            for candidate, cand_score in zip(candidates, scores):
                move += 1
                if cand_score > score:
                    t, score = candidate, cand_score
                    improved = True
                    break
        if not improved:
            step /= 2
            if (step < 1e-4 * step0).all():
                break
    return t, score


def _run_side_by_side(
    searches: List[Generator], score: Callable[[Sequence], List[float]]
) -> List[Tuple[np.ndarray, float]]:
    """Drive :func:`_pattern_search` generators until each returns, one
    ``score`` call per round for all of them; their results in order."""
    results: List = [None] * len(searches)
    pending: Dict[int, np.ndarray] = {}

    def advance(index: int, scores) -> None:
        try:
            pending[index] = searches[index].send(scores)
        except StopIteration as done:
            pending.pop(index, None)
            results[index] = done.value

    for index in range(len(searches)):
        advance(index, None)
    while pending:
        batch = list(pending.items())
        scores = score(np.concatenate([candidates for _, candidates in batch]))
        start = 0
        for index, candidates in batch:
            advance(index, scores[start:start + len(candidates)])
            start += len(candidates)
    return results


def _translation_scorer(
    test: PerformanceEnvelope, reference: PerformanceEnvelope
) -> Callable[[Sequence], List[float]]:
    """``score(offsets)``: for each row ``off`` of a (B, 2) array,
    ``conformance(test.translated(off), reference)``.

    The reference stays put during the search, so its hulls' half-planes
    and the membership of its own points are computed once.  A batch
    moves the test's points and its stacked non-empty hulls by every
    offset at once, (B, ...) arrays, and repeats the per-point
    arithmetic of :func:`conformance` on them exactly.  Scores are kept
    by exact offset for the life of the scorer: the pattern search
    revisits points.
    """
    ref_points = reference.all_points
    ref_planes = half_planes(*polygon_stack(reference.hulls))
    ref_own = points_in_polygons(ref_points, ref_planes)
    vertices, successors, sizes = polygon_stack(test.hulls)

    def score_batch(offsets: np.ndarray) -> List[float]:
        count = len(offsets)
        moved = test.all_points + offsets[:, None]
        # The points conformance() weighs: the moved test points, then
        # the reference's own.
        points = np.concatenate(
            [moved, np.broadcast_to(ref_points, (count,) + ref_points.shape)], axis=1
        )
        shift = offsets[:, None, None]
        in_test = points_in_polygons(
            points, half_planes(vertices + shift, successors + shift, sizes)
        )
        in_ref = np.concatenate(
            [
                points_in_polygons(moved, ref_planes),
                np.broadcast_to(ref_own, (count, len(ref_own))),
            ],
            axis=1,
        )
        both = (in_test & in_ref).sum(axis=1)
        either = (in_test | in_ref).sum(axis=1)
        return [float(b / e) if e else 0.0 for b, e in zip(both, either)]

    scores: Dict[bytes, float] = {}

    def score(offsets: Sequence) -> List[float]:
        offs = np.asarray(offsets, dtype=float).reshape(-1, 2)
        keys = [row.tobytes() for row in offs]
        todo = {key: row for key, row in zip(keys, offs) if key not in scores}
        if todo:
            scores.update(zip(todo, score_batch(np.array(list(todo.values())))))
        return [scores[key] for key in keys]

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
    reference: PerformanceEnvelope,
    config: EnvelopeConfig = EnvelopeConfig(),
) -> ConformanceResult:
    """End-to-end: the test's trials of sampled points, against the
    reference PE built from the reference's trials with the same
    ``config``, -> full conformance metrics.

    The reference is taken built so that cells sharing one are scored
    against one envelope instead of rebuilding it per cell.
    """
    test_pe = build_envelope(test_trials, config)
    conf = conformance(test_pe, reference)
    translation = conformance_post_translation(test_pe, reference)
    legacy = conformance_legacy(test_pe.all_points, reference.all_points)
    return ConformanceResult(
        conformance=conf,
        conformance_t=max(translation.conformance_t, conf),
        conformance_legacy=legacy,
        delta_throughput_mbps=translation.delta_throughput_mbps,
        delta_delay_ms=translation.delta_delay_ms,
        test_envelope=test_pe,
        reference_envelope=reference,
    )
