"""Low-level experiment runner: one 2-flow trial, sampled.

Every measurement in the paper reduces to the same primitive: run
implementation A against implementation B through a shared bottleneck for
T seconds, capture traces, and post-process.  :func:`run_pair` is that
primitive; :func:`sampled_points` adds PE sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.sampling import sample_points
from repro.harness.cache import cache_key
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.netsim.crosstraffic import CrossTrafficConfig
from repro.netsim.network import FlowResult, Network
from repro.netsim.path import NetemConfig
from repro.stacks import registry


@dataclass(frozen=True)
class Impl:
    """A (stack, cca, variant) triple naming one implementation."""

    stack: str
    cca: str
    variant: str = "default"

    def __str__(self) -> str:
        suffix = "" if self.variant == "default" else f"+{self.variant}"
        return f"{self.stack}/{self.cca}{suffix}"

    def key(self) -> Tuple[str, str, str]:
        return (self.stack, self.cca, self.variant)


@dataclass
class PairResult:
    """Both flows' outcomes for one trial."""

    first: FlowResult
    second: FlowResult
    condition: NetworkCondition
    seed: int

    @property
    def throughputs_mbps(self) -> Tuple[float, float]:
        return (
            self.first.mean_throughput_bps / 1e6,
            self.second.mean_throughput_bps / 1e6,
        )


def _trial_seed(base: int, *parts) -> int:
    """Deterministic per-trial seed derived from experiment identity."""
    digest = cache_key(base=base, parts=[str(p) for p in parts])
    return int(digest[:8], 16)


def run_pair(
    first: Impl,
    second: Impl,
    condition: NetworkCondition,
    duration_s: float,
    seed: int,
    cross_traffic: Optional[CrossTrafficConfig] = None,
    wan_netem: Optional[NetemConfig] = None,
) -> PairResult:
    """Run one trial of ``first`` vs ``second`` and return both results."""
    spec_a = registry.get_stack(first.stack).flow_spec(
        first.cca, first.variant, label=str(first)
    )
    spec_b = registry.get_stack(second.stack).flow_spec(
        second.cca, second.variant, label=str(second)
    )
    if wan_netem is not None:
        spec_a.forward_netem = wan_netem
        spec_b.forward_netem = wan_netem
    network = Network(
        condition.link_config(),
        [spec_a, spec_b],
        seed=seed,
        cross_traffic=cross_traffic,
        base_jitter_s=condition.jitter_s(),
        start_spread_s=0.5,
    )
    results = network.run(duration_s)
    return PairResult(
        first=results[0], second=results[1], condition=condition, seed=seed
    )


def trial_identity(
    test: Impl,
    competitor: Impl,
    condition: NetworkCondition,
    config: ExperimentConfig,
    trial: int,
    cross_traffic: Optional[CrossTrafficConfig] = None,
    wan_netem: Optional[NetemConfig] = None,
) -> Tuple[int, str]:
    """The (seed, cache key) pair identifying one trial.

    This is the single source of truth for trial identity:
    :func:`sampled_points` derives its seed here and the job layer
    (``repro.exec``) its cache key, which is what makes results
    bit-identical at any job count.
    """
    seed = _trial_seed(config.seed, test, competitor, condition.physical_key(), trial)
    key = cache_key(
        kind="sampled_points",
        test=test.key(),
        competitor=competitor.key(),
        condition=condition.physical_key(),
        duration=config.duration_s,
        sampling=(
            config.sampling.sample_rtts,
            config.sampling.truncate_fraction,
        ),
        cross=None if cross_traffic is None else vars(cross_traffic),
        wan=None if wan_netem is None else vars(wan_netem),
        seed=seed,
    )
    return seed, key


def sampled_points(
    test: Impl,
    competitor: Impl,
    condition: NetworkCondition,
    config: ExperimentConfig,
    trial: int,
    cross_traffic: Optional[CrossTrafficConfig] = None,
    wan_netem: Optional[NetemConfig] = None,
) -> np.ndarray:
    """The test flow's (delay, throughput) cloud for one trial."""
    seed, _key = trial_identity(
        test, competitor, condition, config, trial, cross_traffic, wan_netem
    )
    result = run_pair(
        test,
        competitor,
        condition,
        duration_s=config.duration_s,
        seed=seed,
        cross_traffic=cross_traffic,
        wan_netem=wan_netem,
    )
    return sample_points(
        result.first.trace,
        base_rtt_s=condition.rtt_s,
        config=config.sampling,
    )


def reference_impl(cca: str) -> Impl:
    """The kernel implementation a QUIC CCA is measured against."""
    return Impl(registry.REFERENCE_STACK, cca)
