"""Golden analysis digests: the PE pipeline's output, pinned bit for bit.

Each scenario builds the reference envelope from fixed inputs, runs
:func:`evaluate_conformance` against it and hashes every field of the
result: Conformance, Conformance-T, Conf-old, both translation deltas,
each envelope's k, retention curve and ``all_points``, and each
cluster's hull, member points and centroid.
Floats enter the hash through ``repr`` and arrays through ``tobytes``,
so any change to the k-means, hull, clipping, membership or translation
arithmetic changes the digest.

The inputs cover the shapes the geometry has to handle: well-separated
clusters, collinear and duplicate points, trials with fewer points than
``k_max``, a trial set whose hull intersection vanishes, the
``single_hull`` legacy PE, and one cell of real simulated trials.

The pinned values are a contract: a change to ``repro.core`` that is
meant to be a pure speedup must leave every one of them untouched.  A
change that alters an analysis result on purpose must say so and re-pin
them.
"""

import hashlib

import numpy as np
import pytest

from repro.core.conformance import evaluate_conformance
from repro.core.envelope import EnvelopeConfig, build_envelope
from repro.core.sampling import sample_points
from repro.harness.config import NetworkCondition
from repro.harness.runner import Impl, run_pair


def _blobs(centers, n, spread, seed):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(c, spread, size=(n, 2)) for c in centers])


def _two_clusters():
    """Two well-separated clusters per trial; k chosen by retention."""
    centers = [(20.0, 2.0), (60.0, 8.0)]
    test = [_blobs(centers, 40, (2.0, 0.4), seed=100 + t) for t in range(3)]
    ref = [_blobs([(22.0, 2.2), (58.0, 7.5)], 40, (2.0, 0.4), seed=200 + t)
           for t in range(3)]
    return test, ref, EnvelopeConfig()


def _collinear():
    """Every test point exactly on one line: degenerate hulls, no PE area."""
    xs = [np.arange(10.0, 35.0) + 0.5 * t for t in range(2)]
    test = [np.column_stack([x, 0.5 * x + 1.0]) for x in xs]
    ref = [_blobs([(20.0, 6.0)], 30, (3.0, 1.0), seed=300 + t) for t in range(2)]
    return test, ref, EnvelopeConfig()


def _duplicates():
    """Repeated points: hulls must see each distinct point once."""
    rng = np.random.default_rng(400)
    base = rng.normal((15.0, 4.0), (1.5, 0.5), size=(12, 2))
    test = [np.vstack([base, base[:6], base[::3]]) + 0.1 * t for t in range(3)]
    ref = [np.vstack([base, base]) * 1.05 + 0.2 * t for t in range(3)]
    return test, ref, EnvelopeConfig()


def _few_points():
    """Trials shorter than k_max: the retention rule's k range shrinks."""
    test = [_blobs([(10.0, 3.0)], 4, (1.0, 0.3), seed=500 + t) for t in range(3)]
    ref = [_blobs([(11.0, 3.2)], 3, (1.0, 0.3), seed=600 + t) for t in range(3)]
    return test, ref, EnvelopeConfig(k_max=5)


def _vanishing_intersection():
    """Trials far apart: every cluster's hull intersection is empty."""
    test = [_blobs([(10.0 + 40.0 * t, 2.0)], 30, (1.0, 0.2), seed=700 + t)
            for t in range(3)]
    ref = [_blobs([(30.0, 2.5)], 30, (4.0, 0.5), seed=800 + t) for t in range(3)]
    return test, ref, EnvelopeConfig()


def _single_hull():
    """The legacy single-hull PE on clustered clouds."""
    test, ref, _ = _two_clusters()
    return test, ref, EnvelopeConfig(single_hull=True)


def _run_pair_cell():
    """One short simulated cell: quiche CUBIC against the kernel reference."""
    condition = NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=1)

    def trials(test_stack):
        clouds = []
        for seed in (31, 32):
            result = run_pair(
                Impl(test_stack, "cubic"), Impl("linux", "cubic"), condition,
                duration_s=3.0, seed=seed,
            )
            clouds.append(sample_points(result.first.trace, base_rtt_s=condition.rtt_s))
        return clouds

    return trials("quiche"), trials("linux"), EnvelopeConfig()


SCENARIOS = {
    "two-clusters": _two_clusters,
    "collinear": _collinear,
    "duplicates": _duplicates,
    "few-points": _few_points,
    "vanishing-intersection": _vanishing_intersection,
    "single-hull": _single_hull,
    "run-pair-cell": _run_pair_cell,
}

GOLDEN = {
    "two-clusters":
        "91741a65f86321fa68d216ef046285ea565b7d36583f1ab0b20a05b50a080905",
    "collinear":
        "9cd48496be463f30c28365b00a286df749e157f1ac81cf82c5acc7f0c7c74abd",
    "duplicates":
        "2ccbd5e04a55000d55b990a8d913ed30008a705e3534673b8799bbd5c4f5861e",
    "few-points":
        "151e908d984c4e73a414c8f4f93c08b375b170e03d82b1871ebbc4ebed3048d6",
    "vanishing-intersection":
        "c2a490713003e08204ea6844e9ea713d1639ca96aca5c27bc2476411c694abde",
    "single-hull":
        "cebf668a46643c6c8a5e49d161d1a42b66301fba1b67da588e8da130eff7ebf1",
    "run-pair-cell":
        "77974115cb645a5badb6b216189b5b0139cbf6673be8761db393a37fde65a83e",
}


def _update(h, *values) -> None:
    h.update(repr(values).encode())
    h.update(b"\n")


def _array(h, label, array) -> None:
    if array is None:
        _update(h, label, None)
        return
    arr = np.ascontiguousarray(array, dtype=np.float64)
    _update(h, label, arr.shape)
    h.update(arr.tobytes())


def analysis_digest(result) -> str:
    """sha256 over every scalar, envelope and cluster of one result."""
    h = hashlib.sha256()
    _update(h, "metrics", result.conformance, result.conformance_t,
            result.conformance_legacy, result.delta_throughput_mbps,
            result.delta_delay_ms)
    for name, pe in (("test", result.test_envelope),
                     ("reference", result.reference_envelope)):
        _update(h, name, pe.k, len(pe.clusters))
        _array(h, "retention", pe.retention_curve)
        _array(h, "all_points", pe.all_points)
        for cluster in pe.clusters:
            _array(h, "hull", cluster.hull)
            _array(h, "points", cluster.points)
            _array(h, "centroid", cluster.centroid)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_analysis_output_matches_pinned_digest(name):
    test_trials, reference_trials, config = SCENARIOS[name]()
    reference = build_envelope(reference_trials, config)
    result = evaluate_conformance(test_trials, reference, config)
    assert analysis_digest(result) == GOLDEN[name]
