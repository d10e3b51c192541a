"""Conformance measurements (§4.1): the harness's main entry point.

``measure_conformance(stack, cca, condition)`` reproduces one cell of the
paper's heatmaps: the QUIC implementation runs against the kernel
reference, the reference runs against itself, and the two Performance
Envelopes are compared with the full metric set (Conformance,
Conformance-T, Conf-old, Δ-throughput, Δ-delay).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.exec import Executor
    from repro.store.warehouse import ResultStore

from repro.core.conformance import ConformanceResult, evaluate_conformance
from repro.core.envelope import PerformanceEnvelope
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.runner import Impl, reference_impl
from repro.netsim.crosstraffic import CrossTrafficConfig
from repro.netsim.path import NetemConfig
from repro.stacks import registry

#: The ``repro.core.conformance`` module (``repro.core`` re-exports a
#: function of that name, which a plain import would find instead).
_core_conformance = importlib.import_module("repro.core.conformance")


@dataclass
class ConformanceMeasurement:
    """One (implementation, network condition) conformance record."""

    impl: Impl
    condition: NetworkCondition
    result: ConformanceResult

    @property
    def conformance(self) -> float:
        return self.result.conformance

    @property
    def conformance_t(self) -> float:
        return self.result.conformance_t

    def row(self) -> dict:
        return {
            "stack": self.impl.stack,
            "cca": self.impl.cca,
            "variant": self.impl.variant,
            "condition": self.condition.describe(),
            **self.result.summary_row(),
        }


def gather_trials(
    test: Impl,
    competitor: Impl,
    condition: NetworkCondition,
    config: ExperimentConfig,
    cross_traffic: Optional[CrossTrafficConfig] = None,
    wan_netem: Optional[NetemConfig] = None,
    executor: Optional["Executor"] = None,
) -> List[np.ndarray]:
    """Sampled point clouds of the test flow, one per trial.

    The trials run as one campaign on ``executor`` (default: a jobs=1
    :class:`~repro.exec.Executor` over the process-wide cache); seeds and
    cache keys do not depend on it, so the arrays are bit-identical at
    any job count.
    """
    from repro.exec import Executor, pair_trial_jobs

    return (executor or Executor()).run(
        pair_trial_jobs(test, competitor, condition, config, cross_traffic, wan_netem),
        campaign=f"trials:{test}-vs-{competitor}@{condition.describe()}",
    )


def reference_trials(
    cca: str,
    condition: NetworkCondition,
    config: ExperimentConfig,
    cross_traffic: Optional[CrossTrafficConfig] = None,
    wan_netem: Optional[NetemConfig] = None,
    executor: Optional["Executor"] = None,
) -> List[np.ndarray]:
    """Kernel-vs-kernel trials defining the reference PE for a CCA."""
    ref = reference_impl(cca)
    return gather_trials(
        ref,
        ref,
        condition,
        config,
        cross_traffic=cross_traffic,
        wan_netem=wan_netem,
        executor=executor,
    )


class Cell(NamedTuple):
    """One conformance cell: an implementation against a kernel reference
    at one network condition."""

    stack: str
    cca: str
    condition: NetworkCondition
    variant: str = "default"
    reference_variant: str = "default"


def heatmap_cells(
    condition: NetworkCondition,
    ccas: Sequence[str],
    stacks: Optional[Sequence[str]] = None,
) -> List[Cell]:
    """A heatmap's cells: every stack (default: every QUIC stack) with
    every one of ``ccas`` it supports."""
    names = (
        list(stacks)
        if stacks is not None
        else [p.name for p in registry.quic_stacks()]
    )
    return [
        Cell(name, cca, condition)
        for name in names
        for cca in ccas
        if registry.get_stack(name).supports(cca)
    ]


def measure_cells(
    cells: Sequence[Cell],
    config: ExperimentConfig,
    executor: Optional["Executor"] = None,
    campaign: str = "conformance",
    cross_traffic: Optional[CrossTrafficConfig] = None,
    wan_netem: Optional[NetemConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[ConformanceMeasurement]:
    """Measure every cell from one campaign of trials.

    Every cell's test-vs-reference and reference-vs-reference trials run
    as one ``executor.run`` (default: a jobs=1
    :class:`~repro.exec.Executor` over the process-wide cache), which
    computes a trial shared between cells once.  Each cell is then
    evaluated from its slice of the returned values, against a reference
    envelope built once for all the cells that share its reference
    trials.  ``progress`` is called with ``"<stack>/<cca> @ <condition>"``
    before each cell is evaluated.
    """
    from repro.exec import Executor, measurement_trial_jobs

    trials = config.trials
    jobs = []
    reference_keys = []
    for cell in cells:
        cell_jobs = measurement_trial_jobs(
            cell.stack, cell.cca, cell.condition, config, cell.variant,
            cell.reference_variant, cross_traffic, wan_netem,
        )
        jobs += cell_jobs
        reference_keys.append(tuple(job.key for job in cell_jobs[trials:]))
    values = (executor or Executor()).run(jobs, campaign=campaign)
    # Cells whose reference trials are the same jobs share one reference
    # envelope, built once through the core module's attribute (where
    # perfbench's ``analysis.envelope`` span wraps it).
    references: Dict[Tuple[str, ...], PerformanceEnvelope] = {}
    measurements = []
    for index, cell in enumerate(cells):
        if progress is not None:
            progress(f"{cell.stack}/{cell.cca} @ {cell.condition.describe()}")
        start = 2 * trials * index
        key = reference_keys[index]
        if key not in references:
            references[key] = _core_conformance.build_envelope(
                values[start + trials:start + 2 * trials], config.envelope
            )
        # Called through this module's global, once per cell: perfbench's
        # ``analysis.evaluate`` span (and its cell count) wraps it here.
        result = evaluate_conformance(
            values[start:start + trials], references[key], config.envelope
        )
        measurements.append(
            ConformanceMeasurement(
                impl=Impl(cell.stack, cell.cca, cell.variant),
                condition=cell.condition,
                result=result,
            )
        )
    return measurements


def measure_conformance(
    stack: str,
    cca: str,
    condition: NetworkCondition,
    config: ExperimentConfig = ExperimentConfig(),
    variant: str = "default",
    reference_variant: str = "default",
    executor: Optional["Executor"] = None,
    store: Optional["ResultStore"] = None,
    store_run: Optional[str] = None,
) -> ConformanceMeasurement:
    """Full conformance measurement for one implementation.

    ``reference_variant`` selects a non-default kernel reference, e.g.
    ``"nohystart"`` for the paper's Table 4 comparison of xquic CUBIC
    against TCP CUBIC with HyStart disabled.  The cell's trials run as
    one campaign on ``executor`` (see :func:`measure_cells`).

    With a ``store`` the finished measurement is recorded (at full
    precision) into the results warehouse under the run named
    ``store_run`` (default ``"conformance"``), ready for later
    ``repro.store`` queries and diffs.
    """
    [measurement] = measure_cells(
        [Cell(stack, cca, condition, variant, reference_variant)],
        config,
        executor,
        campaign=f"conformance:{stack}/{cca}@{condition.describe()}",
    )
    if store is not None:
        store.record_measurement(
            store.ensure_run(store_run or "conformance"), measurement
        )
    return measurement


def conformance_heatmap(
    condition: NetworkCondition,
    config: ExperimentConfig = ExperimentConfig(),
    ccas: Sequence[str] = registry.CCAS,
    stacks: Optional[Sequence[str]] = None,
    executor: Optional["Executor"] = None,
) -> Dict[Tuple[str, str], ConformanceMeasurement]:
    """One full heatmap (paper Fig. 6): every stack x CCA at a condition.

    Every trial of every cell runs as one campaign on ``executor`` (see
    :func:`measure_cells`).  To record a heatmap into the warehouse, run
    it as a ``conformance`` campaign spec (``repro heatmap --store``).
    """
    cells = heatmap_cells(condition, ccas, stacks)
    measurements = measure_cells(
        cells, config, executor, campaign=f"heatmap:{condition.describe()}"
    )
    return {
        (cell.stack, cell.cca): measurement
        for cell, measurement in zip(cells, measurements)
    }
