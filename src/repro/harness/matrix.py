"""Full-matrix experiment driver: the complete §4 protocol.

The paper evaluates every implementation under all 16 combinations of
RTT x bandwidth x buffer depth.  This module sweeps any set of
implementations over any set of conditions, collects the full metric set
per cell, and exports the dataset as CSV — the raw material for every
aggregate view in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.exec import Executor
    from repro.store.warehouse import ResultStore

from repro.harness import scenarios
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.conformance import Cell, ConformanceMeasurement, measure_cells
from repro.harness.reporting import to_csv
from repro.stacks import registry

CSV_HEADERS = [
    "stack",
    "cca",
    "variant",
    "bandwidth_mbps",
    "rtt_ms",
    "buffer_bdp",
    "conformance",
    "conformance_t",
    "conformance_legacy",
    "delta_tput_mbps",
    "delta_delay_ms",
    "k_test",
    "k_ref",
]


@dataclass
class MatrixResult:
    """All measurements of one sweep, with export helpers."""

    measurements: List[ConformanceMeasurement]

    def rows(self) -> List[List]:
        out = []
        for m in self.measurements:
            r = m.result
            out.append(
                [
                    m.impl.stack,
                    m.impl.cca,
                    m.impl.variant,
                    m.condition.bandwidth_mbps,
                    m.condition.rtt_ms,
                    m.condition.buffer_bdp,
                    round(r.conformance, 4),
                    round(r.conformance_t, 4),
                    round(r.conformance_legacy, 4),
                    round(r.delta_throughput_mbps, 3),
                    round(r.delta_delay_ms, 3),
                    r.test_envelope.k,
                    r.reference_envelope.k,
                ]
            )
        return out

    def csv(self) -> str:
        return to_csv(CSV_HEADERS, self.rows())

    def save_csv(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.csv())

    def cell(
        self, stack: str, cca: str, condition: NetworkCondition
    ) -> Optional[ConformanceMeasurement]:
        for m in self.measurements:
            if (
                m.impl.stack == stack
                and m.impl.cca == cca
                and m.condition.physical_key() == condition.physical_key()
            ):
                return m
        return None

    def worst_cells(self, count: int = 10) -> List[ConformanceMeasurement]:
        return sorted(self.measurements, key=lambda m: m.conformance)[:count]

    def save_store(self, store: "ResultStore", run: str = "matrix") -> int:
        """Record every measurement into a results warehouse run."""
        run_info = store.ensure_run(run)
        for measurement in self.measurements:
            store.record_measurement(run_info, measurement)
        return len(self.measurements)


def run_matrix(
    conditions: Optional[Sequence[NetworkCondition]] = None,
    implementations: Optional[Sequence[Tuple[str, str]]] = None,
    config: ExperimentConfig = ExperimentConfig(),
    progress: Optional[Callable[[str], None]] = None,
    executor: Optional["Executor"] = None,
    store: Optional["ResultStore"] = None,
    store_run: str = "matrix",
) -> MatrixResult:
    """Measure every implementation at every condition.

    Defaults to the paper's 16-condition matrix over all 22
    implementations — at the bench protocol that is several hours of
    simulation, so pass a narrowed set (or a store-backed executor, or
    the ``quick_experiment_config``) for interactive use.  Every trial
    of the sweep runs as one campaign on ``executor`` (see
    :func:`~repro.harness.conformance.measure_cells`); ``progress`` is
    told each cell as it is evaluated.  A ``store`` records the finished
    dataset into the results warehouse under ``store_run``.
    """
    if conditions is None:
        conditions = scenarios.full_matrix()
    if implementations is None:
        implementations = [
            (profile.name, cca) for profile, cca in registry.iter_implementations()
        ]
    cells = [
        Cell(stack, cca, condition)
        for condition in conditions
        for stack, cca in implementations
    ]
    result = MatrixResult(
        measurements=measure_cells(
            cells, config, executor, campaign="matrix", progress=progress
        )
    )
    if store is not None:
        result.save_store(store, run=store_run)
    return result
