"""Transitivity of the "beats" relation (§6 "Transitivity").

The paper reports that among the 11 QUIC stacks, *intra*-CCA performance
is transitive (if X beats Y and Y beats Z, X beats Z for implementations
of the same CCA) while *inter*-CCA performance is not (their example:
lsquic CUBIC beats msquic CUBIC, msquic CUBIC beats chromium BBR, but
lsquic CUBIC does not beat chromium BBR in deep buffers).

This module derives the beats relation from bandwidth shares and counts
the violating triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.runner import Impl
from repro.harness import scenarios

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.exec import Executor


@dataclass
class TransitivityReport:
    impls: List[Impl]
    #: beats[i][j] True when impl i's share against j exceeds 0.5.
    beats: np.ndarray
    violations: List[Tuple[Impl, Impl, Impl]]

    @property
    def is_transitive(self) -> bool:
        return not self.violations


def beats_matrix(
    impls: Sequence[Impl],
    condition: Optional[NetworkCondition] = None,
    config: ExperimentConfig = ExperimentConfig(),
    threshold: float = 0.5,
    executor: Optional["Executor"] = None,
) -> np.ndarray:
    """Pairwise beats relation from bandwidth shares.

    Each unordered pair is simulated once, as one job of a single
    campaign on ``executor``; one run yields both directions
    (``share(b, a) = 1 - share(a, b)``), so with ``threshold >= 0.5``
    no pair beats the other both ways.
    """
    from repro.exec import Executor, share_job

    condition = condition or scenarios.fairness_condition()
    n = len(impls)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    values = (executor or Executor()).run(
        [share_job(impls[i], impls[j], condition, config) for i, j in pairs],
        campaign=f"transitivity@{condition.describe()}",
    )
    beats = np.zeros((n, n), dtype=bool)
    for (i, j), trial_shares in zip(pairs, values):
        share = float(np.mean(trial_shares))
        beats[i, j] = share > threshold
        beats[j, i] = 1.0 - share > threshold
    return beats


def transitivity_violations(
    impls: Sequence[Impl],
    beats: np.ndarray,
) -> List[Tuple[Impl, Impl, Impl]]:
    """All (X, Y, Z) with X>Y, Y>Z but not X>Z."""
    n = len(impls)
    violations = []
    for i in range(n):
        for j in range(n):
            if i == j or not beats[i, j]:
                continue
            for k in range(n):
                if k in (i, j):
                    continue
                if beats[j, k] and not beats[i, k]:
                    violations.append((impls[i], impls[j], impls[k]))
    return violations


def analyze(
    impls: Sequence[Impl],
    condition: Optional[NetworkCondition] = None,
    config: ExperimentConfig = ExperimentConfig(),
    executor: Optional["Executor"] = None,
) -> TransitivityReport:
    """Beats matrix plus its transitivity violations for a set of implementations."""
    beats = beats_matrix(impls, condition, config, executor=executor)
    return TransitivityReport(
        impls=list(impls),
        beats=beats,
        violations=transitivity_violations(impls, beats),
    )
