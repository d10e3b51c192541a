"""Conformance "in the wild" (§4.2, Fig. 11).

The paper repeats the conformance experiments over the Internet: senders
on AWS instances, receivers in the lab, link speed locally limited to
100 Mbps, ping-calibrated delay padding pinning the RTT at 50 ms.

We substitute a synthetic wide-area path: the same bottleneck discipline
(the local 100 Mbps limiter is the bottleneck) with mild delay jitter,
sporadic random loss and unresponsive on/off cross traffic — the
uncontrolled variation a real WAN adds on top of a testbed.  The paper
itself found the in-the-wild numbers to track the 1-BDP testbed results,
which is the property this module's benchmark checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.exec import Executor

from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.conformance import (
    Cell, ConformanceMeasurement, heatmap_cells, measure_cells,
)
from repro.netsim.crosstraffic import CrossTrafficConfig
from repro.netsim.path import NetemConfig
from repro.stacks import registry


def internet_condition() -> NetworkCondition:
    """The §4.2 setup: 100 Mbps local limit, RTT pinned to 50 ms.

    The effective buffer at the local limiter is not published; Internet
    paths behaved like the 1-BDP testbed in the paper, so 1 BDP it is.
    """
    return NetworkCondition(
        bandwidth_mbps=100.0, rtt_ms=50.0, buffer_bdp=1.0, label="internet-aws"
    )


def wan_netem() -> NetemConfig:
    """Residual WAN impairments on top of the pinned RTT."""
    return NetemConfig(jitter_s=0.15e-3, loss_rate=2e-5)


def wan_cross_traffic() -> CrossTrafficConfig:
    """Sporadic unresponsive bursts sharing the local limiter."""
    return CrossTrafficConfig(
        rate_bps=8e6, mean_on_s=0.3, mean_off_s=3.0, packet_size=1200
    )


def measure_conformance_internet(
    stack: str,
    cca: str,
    config: ExperimentConfig = ExperimentConfig(),
    variant: str = "default",
    executor: Optional["Executor"] = None,
) -> ConformanceMeasurement:
    """One Fig. 11 cell: conformance over the synthetic WAN."""
    [measurement] = measure_cells(
        [Cell(stack, cca, internet_condition(), variant)],
        config,
        executor,
        campaign=f"internet:{stack}/{cca}",
        cross_traffic=wan_cross_traffic(),
        wan_netem=wan_netem(),
    )
    return measurement


def internet_heatmap(
    config: ExperimentConfig = ExperimentConfig(),
    stacks: Optional[Sequence[str]] = None,
    ccas: Sequence[str] = registry.CCAS,
    executor: Optional["Executor"] = None,
) -> Dict[Tuple[str, str], ConformanceMeasurement]:
    """The full Fig. 11 heatmap over the synthetic WAN, every cell's
    trials run as one campaign on ``executor``."""
    cells = heatmap_cells(internet_condition(), ccas, stacks)
    measurements = measure_cells(
        cells,
        config,
        executor,
        campaign="internet-heatmap",
        cross_traffic=wan_cross_traffic(),
        wan_netem=wan_netem(),
    )
    return {
        (cell.stack, cell.cca): measurement
        for cell, measurement in zip(cells, measurements)
    }
