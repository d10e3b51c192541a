"""Conformance, Conformance-T and the translation hints."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.conformance import (
    _candidate_translations,
    _translation_scorer,
    conformance,
    conformance_legacy,
    conformance_post_translation,
    evaluate_conformance,
)
from repro.core.envelope import EnvelopeConfig, build_envelope
from tests import test_core_golden as golden


def blob(center, n=60, spread=0.5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(center, spread, size=(n, 2))


def make_pe(centers, seed=0, k=None):
    trials = [
        np.vstack([blob(c, seed=seed + 10 * t + i) for i, c in enumerate(centers)])
        for t in range(3)
    ]
    return build_envelope(trials, EnvelopeConfig(k=k or len(centers)))


def test_identical_envelopes_score_near_one():
    a = make_pe([(10, 10)], seed=1)
    assert conformance(a, a) == pytest.approx(1.0)


def test_disjoint_envelopes_score_zero():
    a = make_pe([(0, 0)], seed=1)
    b = make_pe([(100, 100)], seed=2)
    assert conformance(a, b) == 0.0


def test_same_distribution_scores_high():
    a = make_pe([(10, 10)], seed=1)
    b = make_pe([(10, 10)], seed=5)
    assert conformance(a, b) > 0.6


def test_partial_overlap_scores_between():
    a = make_pe([(0, 0)], seed=1)
    b = make_pe([(0.8, 0.8)], seed=2)
    value = conformance(a, b)
    assert 0.0 < value < 0.9


def test_conformance_bounded():
    for offset in (0.0, 0.5, 1.5, 5.0):
        a = make_pe([(0, 0)], seed=1)
        b = make_pe([(offset, offset)], seed=2)
        assert 0.0 <= conformance(a, b) <= 1.0


class TestConformanceT:
    def test_translation_recovers_shifted_clone(self):
        a = make_pe([(0, 0)], seed=1)
        shifted = a.translated((7.0, -3.0))
        result = conformance_post_translation(shifted, a)
        assert result.conformance_t == pytest.approx(1.0)
        # Applied translation undoes the shift; deltas report test - ref.
        assert result.delta_delay_ms == pytest.approx(7.0, abs=0.3)
        assert result.delta_throughput_mbps == pytest.approx(-3.0, abs=0.3)

    def test_conformance_t_at_least_conformance(self):
        a = make_pe([(0, 0)], seed=1)
        b = make_pe([(1.0, 1.0)], seed=2)
        base = conformance(a, b)
        result = conformance_post_translation(a, b)
        assert result.conformance_t >= base - 1e-9

    def test_multi_cluster_translation(self):
        a = make_pe([(0, 0), (20, 20)], seed=1)
        b_trials = [
            np.vstack([blob((5, 5), seed=30 + t), blob((25, 25), seed=60 + t)])
            for t in range(3)
        ]
        b = build_envelope(b_trials, EnvelopeConfig(k=2))
        result = conformance_post_translation(b, a)
        assert result.conformance_t > conformance(b, a)
        assert result.delta_delay_ms == pytest.approx(5.0, abs=1.5)

    @given(st.floats(-20, 20), st.floats(-20, 20))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance(self, dx, dy):
        """Conformance-T of a rigidly translated cloud equals the original's."""
        a = make_pe([(0, 0)], seed=3)
        b = make_pe([(0.5, 0.5)], seed=4)
        moved = b.translated((dx, dy))
        base = conformance_post_translation(b, a).conformance_t
        shifted = conformance_post_translation(moved, a).conformance_t
        assert shifted == pytest.approx(base, abs=0.12)


@lru_cache(maxsize=None)
def scorer_pairs():
    """(test, reference) envelope pairs for the translation scorer: two
    clusters against one, and a test PE with a vanished cluster hull."""
    vanished = build_envelope(
        [blob((10.0 * t, 0), n=30, seed=70 + t) for t in range(3)], EnvelopeConfig(k=1)
    )
    assert vanished.clusters[0].empty
    return (
        (make_pe([(0, 0), (6, 4)], seed=5, k=2), make_pe([(1, 1)], seed=6)),
        (make_pe([(1, 1)], seed=6), make_pe([(0, 0), (6, 4)], seed=5, k=2)),
        (vanished, make_pe([(5, 0)], seed=7)),
    )


class TestTranslationScorer:
    """The search's batched scorer is ``conformance`` of the translated
    test PE, exactly: equal floats, not approximately equal ones."""

    @given(st.floats(-15, 15), st.floats(-15, 15))
    @example(0.0, 0.0)
    @example(1e4, -1e4)  # every test point leaves the reference
    @example(-1e4, 1e4)
    @settings(max_examples=60, deadline=None)
    def test_equals_conformance_of_translated_envelope(self, dx, dy):
        offsets = [(dx, dy), (0.0, 0.0), (1e4, -1e4), (dy, dx), (dx, dy)]
        for test_pe, ref_pe in scorer_pairs():
            expected = [conformance(test_pe.translated(off), ref_pe) for off in offsets]
            assert _translation_scorer(test_pe, ref_pe)(offsets) == expected
            # One at a time, and as an array, through one scorer.
            score = _translation_scorer(test_pe, ref_pe)
            for offset, value in zip(offsets, expected):
                assert score([offset]) == [value]
                assert score(np.array([offset])) == [value]

    def test_pairs_cover_two_hulls_and_a_vanished_one(self):
        hulls = [len(test_pe.hulls) for test_pe, _ in scorer_pairs()]
        assert hulls == [2, 1, 0]

    def test_equals_conformance_at_every_seed_translation(self):
        for test_pe, ref_pe in scorer_pairs():
            offsets = _candidate_translations(test_pe, ref_pe)
            expected = [conformance(test_pe.translated(off), ref_pe) for off in offsets]
            assert _translation_scorer(test_pe, ref_pe)(offsets) == expected

    def test_far_offset_scores_zero(self):
        test_pe, ref_pe = scorer_pairs()[0]
        assert _translation_scorer(test_pe, ref_pe)([(1e4, -1e4)]) == [0.0]


def sequential_search(test, reference, refine_iters=40):
    """The Conformance-T search one candidate at a time, each scored as
    ``conformance(test.translated(t), reference)``: the reference for
    :func:`conformance_post_translation`, which batches it."""

    def score(offset):
        return conformance(test.translated(offset), reference)

    seeds = _candidate_translations(test, reference)
    scored = [((dx, dy), score((dx, dy))) for dx, dy in seeds]
    scored.sort(key=lambda item: item[1], reverse=True)
    best_t, best_score = scored[0]
    spread = reference.all_points.std(axis=0) + test.all_points.std(axis=0)
    step0 = np.maximum(spread / 2, 1e-6)
    for seed_t, seed_score in scored[:3]:
        t = np.asarray(seed_t, dtype=float)
        value = seed_score
        step = step0.copy()
        for _ in range(refine_iters):
            improved = False
            for axis in (0, 1):
                for direction in (+1, -1):
                    candidate = t.copy()
                    candidate[axis] += direction * step[axis]
                    candidate_value = score(candidate)
                    if candidate_value > value:
                        t, value = candidate, candidate_value
                        improved = True
            if not improved:
                step /= 2
                if (step < 1e-4 * step0).all():
                    break
        if value > best_score:
            best_score, best_t = value, (float(t[0]), float(t[1]))
    return best_score, (float(best_t[0]), float(best_t[1]))


class TestSequentialSearchReference:
    """The batched search returns what the one-candidate-at-a-time
    search returns, bit for bit."""

    @staticmethod
    def check(test_pe, ref_pe, refine_iters=40):
        result = conformance_post_translation(test_pe, ref_pe, refine_iters)
        expected = sequential_search(test_pe, ref_pe, refine_iters)
        assert (result.conformance_t, result.translation) == expected

    @pytest.mark.parametrize("name", sorted(golden.SCENARIOS))
    def test_golden_cells(self, name):
        test_trials, reference_trials, config = golden.SCENARIOS[name]()
        self.check(
            build_envelope(test_trials, config),
            build_envelope(reference_trials, config),
        )

    @pytest.mark.parametrize("refine_iters", [0, 1, 5])
    def test_scorer_pairs(self, refine_iters):
        for test_pe, ref_pe in scorer_pairs():
            self.check(test_pe, ref_pe, refine_iters)


class TestLegacyConformance:
    def test_identical_clouds(self):
        pts = blob((10, 10), n=100, seed=1)
        assert conformance_legacy(pts, pts) == pytest.approx(1.0)

    def test_disjoint_clouds(self):
        assert (
            conformance_legacy(blob((0, 0), seed=1), blob((100, 100), seed=2)) == 0.0
        )

    def test_single_hull_overestimates_bimodal(self):
        """The paper's Fig. 1 argument: one hull inflates conformance for
        clustered clouds compared to the clustered definition."""
        ref_centers = [(0, 0), (20, 20)]
        test_centers = [(8, 8), (14, 14)]  # sits in the ref's empty middle
        ref_pts = np.vstack([blob(c, seed=i) for i, c in enumerate(ref_centers)])
        test_pts = np.vstack([blob(c, seed=9 + i) for i, c in enumerate(test_centers)])
        legacy = conformance_legacy(test_pts, ref_pts)
        ref_pe = make_pe(ref_centers, seed=0, k=2)
        test_pe = make_pe(test_centers, seed=9, k=2)
        clustered = conformance(test_pe, ref_pe)
        assert legacy > clustered + 0.2

    def test_trimming_ignores_extreme_outliers(self):
        pts = blob((0, 0), n=100, seed=1)
        with_outliers = np.vstack([pts, [[500, 500], [600, -300]]])
        assert conformance_legacy(with_outliers, pts) > 0.85


def test_evaluate_conformance_end_to_end():
    test_trials = [blob((0.3, 0.3), seed=t) for t in range(3)]
    ref_trials = [blob((0, 0), seed=10 + t) for t in range(3)]
    result = evaluate_conformance(test_trials, build_envelope(ref_trials))
    assert 0 <= result.conformance <= 1
    assert result.conformance_t >= result.conformance
    row = result.summary_row()
    assert set(row) >= {"conf", "conf_t", "conf_old", "delta_tput_mbps", "delta_delay_ms"}
