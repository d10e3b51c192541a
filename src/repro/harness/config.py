"""Experiment configuration.

:class:`NetworkCondition` is the paper's network-parameter tuple
(bandwidth, RTT, buffer depth in BDP); :class:`ExperimentConfig` is the
measurement protocol (flow duration, number of trials, PE sampling).

The paper runs 120-second flows five times per condition on real
hardware.  The default configuration here is scaled to what a pure-Python
packet simulator sustains in a test/benchmark suite (100 s, 3 trials) —
long enough that each trial spans many BBR ProbeRTT cycles and CUBIC
epochs, which the Performance-Envelope methodology needs (short trials
leave run-to-run bimodality that the trial-intersection step punishes).
:func:`paper_experiment_config` restores the paper's full protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.sampling import SamplingConfig
from repro.core.envelope import EnvelopeConfig
from repro.netsim.network import LinkConfig


@dataclass(frozen=True)
class NetworkCondition:
    """One cell of the paper's network-condition matrix (§4)."""

    bandwidth_mbps: float = 20.0
    rtt_ms: float = 10.0
    buffer_bdp: float = 1.0
    label: str = ""

    def __post_init__(self):
        # Seeds and keys hash these: 10 and 10.0 must be one experiment.
        for name in ("bandwidth_mbps", "rtt_ms", "buffer_bdp"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.rtt_ms <= 0:
            raise ValueError("RTT must be positive")
        if self.buffer_bdp <= 0:
            raise ValueError("buffer must be positive")

    @property
    def bandwidth_bps(self) -> float:
        return self.bandwidth_mbps * 1e6

    @property
    def rtt_s(self) -> float:
        return self.rtt_ms / 1e3

    def link_config(self) -> LinkConfig:
        return LinkConfig(
            bandwidth_bps=self.bandwidth_bps,
            rtt_s=self.rtt_s,
            buffer_bdp=self.buffer_bdp,
        )

    def jitter_s(self, mss: int = 1448) -> float:
        """Phase-breaking forward jitter.

        Real testbeds decorrelate competing flows through hardware and OS
        noise; a deterministic simulator needs explicit jitter or droptail
        phase locking makes one flow absorb all the drops.  The jitter is
        capped below the packet serialization time so it cannot reorder
        packets beyond the loss-detection threshold.
        """
        serialization = mss * 8 / self.bandwidth_bps
        return min(0.25e-3, serialization / 2)

    def describe(self) -> str:
        if self.label:
            return self.label
        return (
            f"{self.bandwidth_mbps:g}mbps-{self.rtt_ms:g}ms-"
            f"{self.buffer_bdp:g}bdp"
        )

    def physical_key(self) -> tuple:
        """Identity of the *physical* condition, independent of `label`.

        Seeds and cache keys must derive from this, never from
        :meth:`describe`: two conditions with the same parameters but
        different display labels are the same experiment.
        """
        return (self.bandwidth_mbps, self.rtt_ms, self.buffer_bdp)


@dataclass(frozen=True)
class ExperimentConfig:
    """The measurement protocol around a single conformance number."""

    duration_s: float = 100.0
    trials: int = 3
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    envelope: EnvelopeConfig = field(default_factory=EnvelopeConfig)
    #: Base seed; trial i of a given experiment uses a derived seed.
    seed: int = 20231024  # the paper's first conference day

    def __post_init__(self):
        # Hashed into seeds and keys, as NetworkCondition's fields are.
        object.__setattr__(self, "duration_s", float(self.duration_s))
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.trials < 1:
            raise ValueError("at least one trial is required")

    def overridden(self, **overrides) -> "ExperimentConfig":
        """This protocol with every override that is not None applied."""
        return replace(self, **{k: v for k, v in overrides.items() if v is not None})


def paper_experiment_config() -> ExperimentConfig:
    """The paper's full protocol: 120 s flows, 5 trials (§3.1, §4)."""
    return ExperimentConfig(duration_s=120.0, trials=5)


def quick_experiment_config() -> ExperimentConfig:
    """A fast protocol for unit tests and smoke runs."""
    return ExperimentConfig(duration_s=20.0, trials=2)
