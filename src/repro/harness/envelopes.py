"""One process-wide memo of built Performance Envelopes.

A PE is a pure function of its trials and its
:class:`~repro.core.envelope.EnvelopeConfig`, and every trial a campaign
evaluates is named by its job key, the content identity
:meth:`repro.exec.Executor.run` already caches it under (stack, CCA,
variant, condition, duration, sampling, cross traffic, netem, seed).
So a PE is memoized under its trials' job keys, in trial order, plus
every ``EnvelopeConfig`` field: the kernel reference PE shared by every
cell of a (CCA, condition) and a stack's own PE are each built once per
process, however many campaigns score them.

The memo is a bounded LRU of :data:`MAX_ENVELOPES` entries behind one
lock, which is held only around dictionary operations: an envelope is
built outside it, and two threads missing on the same key both build
it and both return the one stored first.  A memoized PE's arrays are
read-only, so a caller cannot change the PE every later caller gets.
"""

from __future__ import annotations

import importlib
import threading
from collections import OrderedDict
from dataclasses import astuple
from typing import TYPE_CHECKING, Sequence, Tuple

from repro.core.envelope import EnvelopeConfig, PerformanceEnvelope

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.exec import Job

#: The ``repro.core.conformance`` module (``repro.core`` re-exports a
#: function of that name, which a plain import would find instead).
#: Builds go through its ``build_envelope`` attribute, where perfbench's
#: ``analysis.envelope`` span wraps it, so each real build is counted.
_core_conformance = importlib.import_module("repro.core.conformance")

#: Most PEs the memo keeps.  The largest campaign in the repository, the
#: default ``run_matrix()`` over ``scenarios.full_matrix()``, scores 400
#: distinct PEs (16 conditions x (22 stack PEs + 3 kernel references));
#: an LRU smaller than that cycle would evict each PE before a
#: resubmitted matrix reused it.  A PE holds ~32 bytes per point: at the
#: default protocol (100 s x 3 trials) ~78 KB at 10 ms RTT and ~16 KB at
#: 50 ms, so the full matrix keeps ~19 MB and a full memo at most ~40 MB.
MAX_ENVELOPES = 512

_LOCK = threading.Lock()
_ENVELOPES: "OrderedDict[Tuple, PerformanceEnvelope]" = OrderedDict()


def _freeze(envelope: PerformanceEnvelope) -> PerformanceEnvelope:
    arrays = [envelope.all_points, envelope.retention_curve]
    for cluster in envelope.clusters:
        arrays += [cluster.hull, cluster.points, cluster.centroid]
    for array in arrays:
        if array is not None:
            array.setflags(write=False)
    return envelope


def memoized_envelope(
    jobs: Sequence["Job"],
    trials: Sequence[Sequence],
    config: EnvelopeConfig = EnvelopeConfig(),
) -> PerformanceEnvelope:
    """The PE of ``trials``, built on the first call for their jobs' keys
    and ``config`` and shared (read-only) by every later one.

    ``trials[i]`` must be the value :meth:`repro.exec.Executor.run`
    returned for ``jobs[i]``.
    """
    if len(jobs) != len(trials) or not all(job.key for job in jobs):
        raise ValueError("every trial needs its own job with a non-empty key")
    key = (tuple(job.key for job in jobs), astuple(config))
    with _LOCK:
        envelope = _ENVELOPES.get(key)
        if envelope is not None:
            _ENVELOPES.move_to_end(key)
            return envelope
    built = _freeze(_core_conformance.build_envelope(trials, config))
    with _LOCK:
        envelope = _ENVELOPES.setdefault(key, built)
        _ENVELOPES.move_to_end(key)
        while len(_ENVELOPES) > MAX_ENVELOPES:
            _ENVELOPES.popitem(last=False)
    return envelope


def clear_envelopes() -> None:
    """Forget every memoized PE."""
    with _LOCK:
        _ENVELOPES.clear()


__all__ = [
    "MAX_ENVELOPES",
    "clear_envelopes",
    "memoized_envelope",
]
