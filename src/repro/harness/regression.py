"""Kernel-regression testing: "Keeping up with the kernel" (§6).

The kernel reference is itself a moving target: HyStart landed, RFC8312bis
is scheduled, algorithms get retuned.  The paper recommends re-running
conformance tests "every time a new milestone kernel version with
significant changes to the TCP stack is released".

This module implements that workflow: a :class:`KernelMilestone` describes
a reference variant (e.g. CUBIC without HyStart for pre-2.6.29 kernels, or
CUBIC *with* the RFC8312bis undo for the scheduled future kernel), and
:func:`regression_matrix` measures every QUIC implementation against each
milestone, flagging implementations whose conformance verdict flips.

With a ``repro.store`` warehouse attached, each milestone's measurements
land in their own named run; :func:`regression_matrix_from_store` then
rebuilds the matrix from storage, and ``repro.store.diff_runs`` between
milestone runs reproduces the same verdict flips without recomputation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.conformance import Cell, measure_cells
from repro.harness import scenarios
from repro.stacks import registry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.exec import Executor
    from repro.store.warehouse import ResultStore


@dataclass(frozen=True)
class KernelMilestone:
    """One kernel reference flavour to regress against."""

    name: str
    #: CCA -> kernel variant name to use as the reference implementation.
    reference_variants: Dict[str, str] = field(default_factory=dict)
    note: str = ""

    def variant_for(self, cca: str) -> str:
        return self.reference_variants.get(cca, "default")


#: The milestones the paper's narrative mentions.
MILESTONES: List[KernelMilestone] = [
    KernelMilestone(
        name="5.13-stock",
        note="the paper's reference kernel (HyStart on, no RFC8312bis undo)",
    ),
    KernelMilestone(
        name="pre-hystart",
        reference_variants={"cubic": "nohystart"},
        note="CUBIC before HyStart (the mechanism xquic is missing)",
    ),
]


@dataclass
class RegressionRow:
    """One implementation's conformance across kernel milestones."""

    stack: str
    cca: str
    #: milestone name -> conformance.
    conformance: Dict[str, float]

    def verdicts(self, threshold: float = 0.5) -> Dict[str, bool]:
        return {k: v >= threshold for k, v in self.conformance.items()}

    @property
    def verdict_flips(self) -> bool:
        verdicts = set(self.verdicts().values())
        return len(verdicts) > 1


#: Store runs recording regression campaigns are named
#: ``<prefix>:<milestone name>``.
REGRESSION_RUN_PREFIX = "regression"


def milestone_run_name(
    milestone: KernelMilestone, prefix: str = REGRESSION_RUN_PREFIX
) -> str:
    """The warehouse run name holding one milestone's measurements."""
    name = milestone.name if isinstance(milestone, KernelMilestone) else milestone
    return f"{prefix}:{name}"


def regression_matrix(
    milestones: Sequence[KernelMilestone] = tuple(MILESTONES),
    implementations: Optional[Sequence[Tuple[str, str]]] = None,
    condition: Optional[NetworkCondition] = None,
    config: ExperimentConfig = ExperimentConfig(),
    executor: Optional["Executor"] = None,
    store: Optional["ResultStore"] = None,
    run_prefix: str = REGRESSION_RUN_PREFIX,
) -> List[RegressionRow]:
    """Conformance of each implementation against each kernel milestone.

    With a ``store``, every milestone's measurements are recorded into
    their own warehouse run (``<run_prefix>:<milestone>``), so that
    ``repro.store.diff_runs`` between two milestone runs reports exactly
    the verdict flips :func:`flipped_verdicts` computes in memory — and
    future releases can be diffed without re-running anything.

    Every (implementation, milestone) cell's trials run as one campaign
    on ``executor`` (see :func:`~repro.harness.conformance.measure_cells`),
    so ``--jobs N`` starts one worker pool for the whole matrix.
    """
    condition = condition or scenarios.shallow_buffer()
    if implementations is None:
        implementations = [
            (profile.name, cca) for profile, cca in registry.iter_implementations()
        ]
    milestone_runs = {}
    if store is not None:
        for milestone in milestones:
            milestone_runs[milestone.name] = store.ensure_run(
                milestone_run_name(milestone, run_prefix), note=milestone.note
            )
    cells = [
        Cell(stack, cca, condition, reference_variant=milestone.variant_for(cca))
        for stack, cca in implementations
        for milestone in milestones
    ]
    measurements = iter(
        measure_cells(
            cells, config, executor,
            campaign=f"{run_prefix}@{condition.describe()}",
        )
    )
    rows: List[RegressionRow] = []
    for stack, cca in implementations:
        values: Dict[str, float] = {}
        for milestone in milestones:
            measurement = next(measurements)
            values[milestone.name] = measurement.conformance
            if store is not None:
                store.record_measurement(milestone_runs[milestone.name], measurement)
        rows.append(RegressionRow(stack=stack, cca=cca, conformance=values))
    return rows


def regression_matrix_from_store(
    store: "ResultStore",
    milestones: Sequence[KernelMilestone] = tuple(MILESTONES),
    run_prefix: str = REGRESSION_RUN_PREFIX,
) -> List[RegressionRow]:
    """Rebuild the regression matrix from stored milestone runs.

    The read-side counterpart of :func:`regression_matrix`: conformance
    values come out of the warehouse instead of being recomputed, so
    reports over paper-scale campaigns are instant.  Implementations
    present in only some milestone runs are skipped (a partial campaign
    cannot yield a verdict across milestones).
    """
    per_milestone = {
        milestone.name: store.metric_table(
            milestone_run_name(milestone, run_prefix), "conf"
        )
        for milestone in milestones
    }
    subjects = None
    for table in per_milestone.values():
        keys = {(stack, cca) for stack, cca, _variant, _cond in table}
        subjects = keys if subjects is None else subjects & keys
    rows: List[RegressionRow] = []
    for stack, cca in sorted(subjects or ()):
        values = {}
        for name, table in per_milestone.items():
            cells = [v for (s, c, _v, _cond), v in table.items()
                     if s == stack and c == cca]
            values[name] = cells[0]
        rows.append(RegressionRow(stack=stack, cca=cca, conformance=values))
    return rows


def flipped_verdicts(rows: Sequence[RegressionRow]) -> List[RegressionRow]:
    """Implementations whose conformant/non-conformant verdict depends on
    the kernel milestone — the cases §6 warns about."""
    return [row for row in rows if row.verdict_flips]
