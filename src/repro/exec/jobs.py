"""Job specifications for the experiment executor.

A :class:`Job` is the executor's unit of work: a picklable module-level
callable plus its arguments, a cache key identifying the result, and a
human-readable label for telemetry.  Job functions only compute and
return a numpy array (the executor alone reads and fills the cache);
everything they receive and return crosses a process boundary, so it
must pickle under the ``spawn`` start method.

:class:`TrialJob` is the canonical spec for the harness's primitive —
one 2-flow trial (impl pair, network condition, experiment config, trial
index, optional cross-traffic/netem) — and derives its seed and cache
key from :func:`repro.harness.runner.trial_identity`.  That identity
does not depend on where a job runs, which is what makes campaigns
bit-identical at any job count.

The builder functions at the bottom turn whole harness campaigns
(conformance cells, fairness pairs, BBR gain sweeps) into job lists;
the harness entry points run each list with one ``Executor.run`` and
evaluate the values by position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.runner import Impl, sampled_points, trial_identity
from repro.netsim.crosstraffic import CrossTrafficConfig
from repro.netsim.path import NetemConfig
from repro.stacks import registry


@dataclass(frozen=True)
class Job:
    """One schedulable unit of work.

    ``fn`` must be a module-level callable (picklable by qualified name)
    with signature ``fn(*args, **kwargs) -> np.ndarray``.
    ``key`` is the result's cache key; jobs whose key is already present
    in the campaign cache are satisfied without running.
    """

    fn: Callable
    args: Tuple = ()
    kwargs: Dict = field(default_factory=dict)
    key: str = ""
    label: str = ""


@dataclass(frozen=True)
class TrialJob:
    """One 2-flow trial of ``test`` vs ``competitor`` (the paper's primitive)."""

    test: Impl
    competitor: Impl
    condition: NetworkCondition
    config: ExperimentConfig
    trial: int
    cross_traffic: Optional[CrossTrafficConfig] = None
    wan_netem: Optional[NetemConfig] = None

    def identity(self) -> Tuple[int, str]:
        """(seed, cache key) from :func:`repro.harness.runner.trial_identity`."""
        return trial_identity(
            self.test,
            self.competitor,
            self.condition,
            self.config,
            self.trial,
            self.cross_traffic,
            self.wan_netem,
        )

    @property
    def seed(self) -> int:
        return self.identity()[0]

    @property
    def cache_key(self) -> str:
        return self.identity()[1]

    def label(self) -> str:
        return (
            f"{self.test} vs {self.competitor} @ "
            f"{self.condition.describe()} trial {self.trial}"
        )

    def to_job(self) -> Job:
        return Job(
            fn=sampled_points,
            args=(self.test, self.competitor, self.condition, self.config, self.trial),
            kwargs={
                "cross_traffic": self.cross_traffic,
                "wan_netem": self.wan_netem,
            },
            key=self.cache_key,
            label=self.label(),
        )


def pair_trial_jobs(
    test: Impl,
    competitor: Impl,
    condition: NetworkCondition,
    config: ExperimentConfig,
    cross_traffic: Optional[CrossTrafficConfig] = None,
    wan_netem: Optional[NetemConfig] = None,
) -> List[Job]:
    """One job per trial of a (test, competitor) pair, in trial order."""
    return [
        TrialJob(
            test, competitor, condition, config, trial, cross_traffic, wan_netem
        ).to_job()
        for trial in range(config.trials)
    ]


def measurement_trial_jobs(
    stack: str,
    cca: str,
    condition: NetworkCondition,
    config: ExperimentConfig,
    variant: str = "default",
    reference_variant: str = "default",
    cross_traffic: Optional[CrossTrafficConfig] = None,
    wan_netem: Optional[NetemConfig] = None,
) -> List[Job]:
    """All trials behind one conformance cell: the ``config.trials``
    test-vs-reference runs, then as many reference-vs-reference runs
    defining the reference envelope."""
    impl = Impl(stack, cca, variant)
    reference = Impl(registry.REFERENCE_STACK, cca, reference_variant)
    jobs = pair_trial_jobs(
        impl, reference, condition, config, cross_traffic, wan_netem
    )
    jobs += pair_trial_jobs(
        reference, reference, condition, config, cross_traffic, wan_netem
    )
    return jobs


def share_job(
    first: Impl,
    second: Impl,
    condition: NetworkCondition,
    config: ExperimentConfig,
) -> Job:
    """One fairness pair: the full trial loop of one bandwidth-share cell."""
    from repro.harness.fairness import compute_share_array, share_cache_key

    return Job(
        fn=compute_share_array,
        args=(first, second, condition, config),
        key=share_cache_key(first, second, condition, config),
        label=f"share {first} vs {second} @ {condition.describe()}",
    )


def sweep_trial_jobs(
    gains: Sequence[float],
    condition: NetworkCondition,
    config: ExperimentConfig,
) -> List[Job]:
    """All trials of the Fig. 5 cwnd-gain sweep: the reference runs first,
    then each gain's trials in order (a key repeated across gains is
    computed once by :meth:`~repro.exec.Executor.run`)."""
    from repro.analysis.sweeps import compute_gain_trial, sweep_trial_identity

    pairs = [(2.0, trial + 1000) for trial in range(config.trials)]
    pairs += [(gain, trial) for gain in gains for trial in range(config.trials)]
    return [
        Job(
            fn=compute_gain_trial,
            args=(gain, condition, config, trial),
            key=sweep_trial_identity(gain, condition, config, trial)[1],
            label=f"bbr gain {gain:g} trial {trial} @ {condition.describe()}",
        )
        for gain, trial in pairs
    ]


__all__ = [
    "Job",
    "TrialJob",
    "pair_trial_jobs",
    "measurement_trial_jobs",
    "share_job",
    "sweep_trial_jobs",
]
