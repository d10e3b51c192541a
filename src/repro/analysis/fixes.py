"""Fix verification: Table 4 and Figures 14/15.

The paper proposes small modifications to four low-conformance
implementations and verifies each by re-measuring conformance.  Every
case is encoded here as a :class:`FixCase` (stack, CCA, the fixed
variant, and the reference variant to measure against), and
:func:`evaluate_fix` reproduces the before/after comparison.

The xquic CUBIC row is special: the paper did not fix it but verified the
root cause (missing HyStart) by measuring against *kernel CUBIC with
HyStart disabled* — expressed here as ``reference_variant="nohystart"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.conformance import Cell, ConformanceMeasurement, measure_cells
from repro.harness.runner import Impl, reference_impl, run_pair, _trial_seed
from repro.harness import scenarios

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.exec import Executor


@dataclass(frozen=True)
class FixCase:
    """One row of Table 4."""

    stack: str
    cca: str
    #: Variant implementing the fix, or None when the paper only verified
    #: the root cause without fixing (xquic CUBIC).
    fixed_variant: Optional[str]
    #: Kernel variant used as the reference for the *verification* run.
    reference_variant: str = "default"
    #: Paper's description of the modification.
    remark: str = ""
    #: Lines of code the paper's modification took (None when unfixed).
    loc: Optional[int] = None


FIXES: List[FixCase] = [
    FixCase(
        "chromium",
        "cubic",
        "fixed",
        remark="Emulated flows reduced from 2 to 1",
        loc=1,
    ),
    FixCase(
        "mvfst",
        "bbr",
        "fixed",
        remark="pacing gain reduced from 1.25 to 1",
        loc=2,
    ),
    FixCase(
        "xquic",
        "bbr",
        "fixed",
        remark="cwnd gain reduced from 2.5 to 2",
        loc=2,
    ),
    FixCase(
        "quiche",
        "cubic",
        "fixed",
        remark="Disabled RFC8312bis spurious-loss rollback",
        loc=14,
    ),
    FixCase(
        "xquic",
        "cubic",
        None,
        reference_variant="nohystart",
        remark="xquic does not implement HyStart; verified against "
        "TCP CUBIC with HyStart disabled",
    ),
]

#: Cases the paper verified as CCA-compliant but could not fix (stack-level
#: artifacts, §5 "Indications of wider stack-level issues").
UNFIXED: List[Tuple[str, str]] = [("xquic", "reno"), ("neqo", "cubic")]


@dataclass
class FixOutcome:
    """Before/after conformance for one fix case."""

    case: FixCase
    before: ConformanceMeasurement
    after: Optional[ConformanceMeasurement]

    @property
    def improved(self) -> bool:
        if self.after is None:
            return False
        return self.after.conformance > self.before.conformance

    def row(self) -> dict:
        out = {
            "stack": self.case.stack,
            "cca": self.case.cca,
            "conf_before": round(self.before.conformance, 2),
            "conf_t_before": round(self.before.conformance_t, 2),
            "dtput_before": round(self.before.result.delta_throughput_mbps, 1),
            "ddelay_before": round(self.before.result.delta_delay_ms, 1),
            "remark": self.case.remark,
            "loc": self.case.loc,
        }
        if self.after is not None:
            out.update(
                conf_after=round(self.after.conformance, 2),
                conf_t_after=round(self.after.conformance_t, 2),
                dtput_after=round(self.after.result.delta_throughput_mbps, 1),
                ddelay_after=round(self.after.result.delta_delay_ms, 1),
            )
        return out


def _fix_cells(case: FixCase, condition: NetworkCondition) -> List[Cell]:
    """One Table 4 row's cells: the default variant, then the fix or the
    verification against a modified kernel reference (if any)."""
    cells = [Cell(case.stack, case.cca, condition)]
    if case.fixed_variant is not None:
        cells.append(Cell(case.stack, case.cca, condition, case.fixed_variant))
    elif case.reference_variant != "default":
        cells.append(
            Cell(case.stack, case.cca, condition,
                 reference_variant=case.reference_variant)
        )
    return cells


def _evaluate(
    cases: Sequence[FixCase],
    condition: Optional[NetworkCondition],
    config: ExperimentConfig,
    executor: Optional["Executor"],
) -> List[FixOutcome]:
    """Every case's cells as one campaign on ``executor``, sliced back
    by position into before/after outcomes."""
    condition = condition or scenarios.shallow_buffer()
    per_case = [_fix_cells(case, condition) for case in cases]
    measurements = iter(measure_cells(
        sum(per_case, []), config, executor,
        campaign=f"fixes@{condition.describe()}",
    ))
    return [
        FixOutcome(case, next(measurements),
                   next(measurements) if len(cells) > 1 else None)
        for case, cells in zip(cases, per_case)
    ]


def evaluate_fix(
    case: FixCase,
    condition: Optional[NetworkCondition] = None,
    config: ExperimentConfig = ExperimentConfig(),
    executor: Optional["Executor"] = None,
) -> FixOutcome:
    """Measure one Table 4 row: default variant, then the fix/verification."""
    [outcome] = _evaluate([case], condition, config, executor)
    return outcome


def evaluate_all_fixes(
    condition: Optional[NetworkCondition] = None,
    config: ExperimentConfig = ExperimentConfig(),
    executor: Optional["Executor"] = None,
) -> List[FixOutcome]:
    """Measure every Table 4 fix case at one condition, as one campaign."""
    return _evaluate(FIXES, condition, config, executor)


def cwnd_time_series(
    stack: str,
    cca: str,
    variant: str = "default",
    condition: Optional[NetworkCondition] = None,
    duration_s: float = 30.0,
    seed: int = 1,
) -> np.ndarray:
    """(time, cwnd_bytes) samples of one flow vs the kernel reference.

    Reproduces the time-series views of Fig. 15, which the paper uses to
    show quiche CUBIC's cwnd never backing off until the rollback is
    disabled.
    """
    condition = condition or scenarios.shallow_buffer()
    seed = _trial_seed(seed, "cwnd_ts", stack, cca, variant)
    result = run_pair(
        Impl(stack, cca, variant),
        reference_impl(cca),
        condition,
        duration_s=duration_s,
        seed=seed,
    )
    return np.asarray(result.first.trace.cwnd_samples, dtype=float)
