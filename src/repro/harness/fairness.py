"""Bandwidth-share fairness analysis (§4.3, §4.4).

The paper complements conformance with a sanity check: pairwise
bandwidth shares of all implementation combinations at 20 Mbps / 50 ms /
1 BDP.  ``share > 0.5`` means the row implementation takes more than its
fair share.  §4.4 applies the same machinery across CCAs (every CUBIC vs
every BBR) in shallow and deep buffers to show low-conformance
implementations subverting the expected CUBIC/BBR dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.exec import Executor
    from repro.store.warehouse import ResultStore

from repro.harness.cache import cache_key
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.runner import Impl, run_pair, _trial_seed
from repro.stacks import registry


def share_cache_key(
    first: Impl,
    second: Impl,
    condition: NetworkCondition,
    config: ExperimentConfig,
) -> str:
    """Cache key of one pair's per-trial share array."""
    return cache_key(
        kind="bandwidth_share",
        first=first.key(),
        second=second.key(),
        condition=condition.physical_key(),
        duration=config.duration_s,
        trials=config.trials,
        seed=config.seed,
    )


def compute_share_array(
    first: Impl,
    second: Impl,
    condition: NetworkCondition,
    config: ExperimentConfig = ExperimentConfig(),
) -> np.ndarray:
    """Per-trial shares T_first / (T_first + T_second).

    Module-level (picklable) so a fairness pair runs as one
    ``repro.exec`` job, in-process or in a pool worker.
    """
    shares = []
    for trial in range(config.trials):
        seed = _trial_seed(
            config.seed, "fair", first, second, condition.physical_key(), trial
        )
        result = run_pair(
            first, second, condition, duration_s=config.duration_s, seed=seed
        )
        t1, t2 = result.throughputs_mbps
        total = t1 + t2
        shares.append(0.5 if total <= 0 else t1 / total)
    return np.array(shares)


def bandwidth_share(
    first: Impl,
    second: Impl,
    condition: NetworkCondition,
    config: ExperimentConfig = ExperimentConfig(),
    executor: Optional["Executor"] = None,
) -> float:
    """Mean share T_first / (T_first + T_second) over the trials, run as
    one :func:`~repro.exec.share_job` on ``executor`` (default: a jobs=1
    :class:`~repro.exec.Executor` over the process-wide cache)."""
    from repro.exec import Executor, share_job

    (shares,) = (executor or Executor()).run(
        [share_job(first, second, condition, config)],
        campaign=f"share:{first}-vs-{second}@{condition.describe()}",
    )
    return float(np.mean(shares))


@dataclass
class FairnessMatrix:
    """A labelled share matrix: entry [i][j] = share of row i vs col j."""

    rows: List[str]
    cols: List[str]
    shares: np.ndarray

    def share(self, row: str, col: str) -> float:
        return float(self.shares[self.rows.index(row), self.cols.index(col)])

    def unfair_rows(self, threshold: float = 0.6) -> List[str]:
        """Row implementations whose *median* share against the other
        implementations exceeds ``threshold`` (overly aggressive)."""
        out = []
        for i, row in enumerate(self.rows):
            others = [
                self.shares[i, j]
                for j, col in enumerate(self.cols)
                if col != row and not np.isnan(self.shares[i, j])
            ]
            if others and float(np.median(others)) > threshold:
                out.append(row)
        return out

    def save_store(
        self, store: "ResultStore", run: str, condition: NetworkCondition
    ) -> None:
        """Record one ``share`` measurement per (row, col) pair.

        The row label is stored in the ``stack`` column and the column
        label in ``cca``: a share cell's subject is the pairing, not a
        single implementation.
        """
        run_info = store.ensure_run(run, note="bandwidth-share matrix")
        for i, row in enumerate(self.rows):
            for j, col in enumerate(self.cols):
                value = float(self.shares[i, j])
                if not np.isnan(value):
                    store.record_metrics(
                        run_info, stack=row, cca=col,
                        metrics={"share": value}, condition=condition,
                    )


def _impl_label(impl: Impl) -> str:
    return f"{impl.stack}-{impl.cca}"


def intra_cca_matrix(
    cca: str,
    condition: NetworkCondition,
    config: ExperimentConfig = ExperimentConfig(),
    include_reference: bool = True,
    stacks: Optional[Sequence[str]] = None,
    executor: Optional["Executor"] = None,
) -> FairnessMatrix:
    """Pairwise shares between all implementations of one CCA (Fig. 12).

    Every pair is one job of a single campaign on ``executor`` (default:
    a jobs=1 :class:`~repro.exec.Executor` over the process-wide cache).
    """
    from repro.exec import Executor, share_job

    impls = _implementations(cca, include_reference, stacks)
    labels = [_impl_label(i) for i in impls]
    n = len(impls)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    values = (executor or Executor()).run(
        [share_job(impls[i], impls[j], condition, config) for i, j in pairs],
        campaign=f"fairness:{cca}@{condition.describe()}",
    )
    shares = np.full((n, n), np.nan)
    np.fill_diagonal(shares, 0.5)
    for (i, j), trial_shares in zip(pairs, values):
        # One experiment yields both directions, exactly as the paper
        # computes T_x/(T_x+T_y) and T_y/(T_x+T_y) from a single run.
        share = float(np.mean(trial_shares))
        shares[i, j] = share
        shares[j, i] = 1.0 - share
    return FairnessMatrix(rows=labels, cols=labels, shares=shares)


def inter_cca_matrix(
    row_cca: str,
    col_cca: str,
    condition: NetworkCondition,
    config: ExperimentConfig = ExperimentConfig(),
    include_reference: bool = True,
    row_stacks: Optional[Sequence[str]] = None,
    col_stacks: Optional[Sequence[str]] = None,
    executor: Optional["Executor"] = None,
) -> FairnessMatrix:
    """Shares of every ``row_cca`` impl vs every ``col_cca`` impl (Fig. 13),
    every pair one job of a single campaign on ``executor``."""
    from repro.exec import Executor, share_job

    rows = _implementations(row_cca, include_reference, row_stacks)
    cols = _implementations(col_cca, include_reference, col_stacks)
    values = (executor or Executor()).run(
        [share_job(a, b, condition, config) for a in rows for b in cols],
        campaign=f"intercca:{row_cca}x{col_cca}@{condition.describe()}",
    )
    shares = np.array(
        [float(np.mean(trial_shares)) for trial_shares in values]
    ).reshape(len(rows), len(cols))
    return FairnessMatrix(
        rows=[_impl_label(i) for i in rows],
        cols=[_impl_label(i) for i in cols],
        shares=shares,
    )


def _implementations(
    cca: str, include_reference: bool, stacks: Optional[Sequence[str]]
) -> List[Impl]:
    if stacks is not None:
        names = list(stacks)
    else:
        names = [p.name for p in registry.implementations(cca)]
        if include_reference:
            names.insert(0, registry.REFERENCE_STACK)
    return [Impl(name, cca) for name in names]
