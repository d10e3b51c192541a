"""Short-flow / flow-completion-time experiments.

§6 ("Refining bandwidth-share analysis") asks for different start times,
flow durations and application-level metrics beyond steady-state shares.
This module provides both:

* :func:`flow_completion_time` — how long a finite transfer (e.g. a web
  object) takes for a given implementation, optionally competing with a
  long-running background flow;
* :func:`staggered_fairness` — the share a late-starting flow converges
  to against an established one, the classic late-comer fairness probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.exec import Executor

from repro.harness.cache import cache_key
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.runner import Impl, _trial_seed
from repro.netsim.network import Network
from repro.stacks import registry


@dataclass
class CompletionResult:
    """Outcome of one finite transfer."""

    impl: Impl
    transfer_bytes: int
    #: Seconds from flow start to the last byte acked; None = incomplete
    #: within the simulation horizon.
    fct_s: Optional[float]
    competing: Optional[Impl]

    @property
    def completed(self) -> bool:
        return self.fct_s is not None

    def goodput_mbps(self) -> Optional[float]:
        if self.fct_s is None or self.fct_s <= 0:
            return None
        return self.transfer_bytes * 8 / self.fct_s / 1e6


def flow_completion_time(
    impl: Impl,
    transfer_bytes: int,
    condition: NetworkCondition,
    competing: Optional[Impl] = None,
    seed: int = 1,
    horizon_s: float = 60.0,
) -> CompletionResult:
    """FCT of one finite transfer, optionally against a background flow.

    The background flow (when given) starts first and runs for the whole
    horizon; the finite flow starts once the background flow has had two
    seconds to reach steady state, as a web request arriving at a busy
    bottleneck would.
    """
    if transfer_bytes <= 0:
        raise ValueError("transfer size must be positive")
    specs = []
    start = 0.0
    if competing is not None:
        specs.append(
            registry.get_stack(competing.stack).flow_spec(
                competing.cca, competing.variant, label="background"
            )
        )
        start = 2.0
    spec = registry.get_stack(impl.stack).flow_spec(
        impl.cca, impl.variant, label="transfer", start_time=start
    )
    spec.sender_config.total_bytes = transfer_bytes
    specs.append(spec)
    network = Network(
        condition.link_config(),
        specs,
        seed=seed,
        base_jitter_s=condition.jitter_s(),
    )
    network.run(horizon_s)
    sender = network.senders[-1]
    fct = None
    if sender.completion_time is not None and sender._start_time is not None:
        fct = sender.completion_time - sender._start_time
    return CompletionResult(
        impl=impl,
        transfer_bytes=transfer_bytes,
        fct_s=fct,
        competing=competing,
    )


def staggered_cache_key(
    first: Impl,
    late: Impl,
    condition: NetworkCondition,
    config: ExperimentConfig,
    stagger_s: float,
) -> str:
    """Cache key of one staggered pair's per-trial share array."""
    return cache_key(
        kind="staggered",
        first=first.key(),
        late=late.key(),
        condition=condition.physical_key(),
        duration=config.duration_s,
        trials=config.trials,
        stagger=stagger_s,
        seed=config.seed,
    )


def compute_staggered_shares(
    first: Impl,
    late: Impl,
    condition: NetworkCondition,
    config: ExperimentConfig,
    stagger_s: float,
) -> np.ndarray:
    """Per-trial share of the late flow over the overlap period.

    Module-level (picklable) so a staggered pair runs as one
    ``repro.exec`` job, in-process or in a pool worker.
    """
    shares = []
    for trial in range(config.trials):
        seed = _trial_seed(config.seed, "stagger", first, late, condition.physical_key(), trial)
        spec_a = registry.get_stack(first.stack).flow_spec(
            first.cca, first.variant, label="first"
        )
        spec_b = registry.get_stack(late.stack).flow_spec(
            late.cca, late.variant, label="late", start_time=stagger_s
        )
        network = Network(
            condition.link_config(),
            [spec_a, spec_b],
            seed=seed,
            base_jitter_s=condition.jitter_s(),
        )
        results = network.run(config.duration_s)
        # Shares over the overlap period only.
        overlap_bytes = [
            sum(
                r.payload_bytes
                for r in res.trace.records
                if r.arrival_time >= stagger_s
            )
            for res in results
        ]
        total = sum(overlap_bytes)
        shares.append(0.5 if total == 0 else overlap_bytes[1] / total)
    return np.array(shares)


def staggered_fairness(
    first: Impl,
    late: Impl,
    condition: NetworkCondition,
    config: ExperimentConfig = ExperimentConfig(),
    stagger_s: float = 5.0,
    executor: Optional["Executor"] = None,
) -> float:
    """Share the late flow obtains over the overlap period, averaged over
    trials.  0.5 = the late-comer converges to a fair share.

    The trials run as one job on ``executor`` (default: a jobs=1
    :class:`~repro.exec.Executor` over the process-wide cache).
    """
    from repro.exec import Executor, Job

    job = Job(
        fn=compute_staggered_shares,
        args=(first, late, condition, config, stagger_s),
        key=staggered_cache_key(first, late, condition, config, stagger_s),
        label=f"stagger {late} after {first} @ {condition.describe()}",
    )
    (shares,) = (executor or Executor()).run(
        [job], campaign=f"staggered:{first}-then-{late}@{condition.describe()}"
    )
    return float(np.mean(shares))


def fct_sweep(
    impl: Impl,
    sizes: List[int],
    condition: NetworkCondition,
    competing: Optional[Impl] = None,
    seed: int = 1,
) -> List[CompletionResult]:
    """FCT across transfer sizes (short flows to multi-megabyte objects)."""
    return [
        flow_completion_time(
            impl, size, condition, competing=competing, seed=seed + i
        )
        for i, size in enumerate(sizes)
    ]
