"""Parameter sweeps (Fig. 5): Conformance vs Conformance-T for modified BBR.

The paper's sanity check for Conformance-T: take the *kernel* BBR, vary
``cwnd_gain`` from 1.0 to 4.0 (default 2.0), and measure each modified
version against vanilla kernel BBR.  Conformance should peak at 2.0 and
fall off as the gain departs from the default, while Conformance-T stays
high — a parameter-mistuned implementation is exactly a translated
envelope.  Δ-throughput and Δ-delay should grow with the gain (a cwnd
knob moves both axes, §3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.exec import Executor
    from repro.store.warehouse import ResultStore

from repro.cca.bbr import BBR, BBRConfig
from repro.core.conformance import evaluate_conformance
from repro.core.sampling import SamplingConfig, sample_points
from repro.harness.cache import cache_key
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.envelopes import memoized_envelope
from repro.harness import scenarios
from repro.netsim.network import Network
from repro.stacks import registry


@dataclass
class SweepPoint:
    """One x-position of Fig. 5."""

    cwnd_gain: float
    conformance: float
    conformance_t: float
    delta_throughput_mbps: float
    delta_delay_ms: float

    def row(self) -> dict:
        return {
            "cwnd_gain": self.cwnd_gain,
            "conf": round(self.conformance, 3),
            "conf_t": round(self.conformance_t, 3),
            "delta_tput_mbps": round(self.delta_throughput_mbps, 2),
            "delta_delay_ms": round(self.delta_delay_ms, 2),
        }


def sweep_trial_identity(
    cwnd_gain: float,
    condition: NetworkCondition,
    config: ExperimentConfig,
    trial: int,
) -> Tuple[int, str]:
    """The (seed, cache key) pair of one modified-BBR trial.

    The seed depends only on what is simulated; the key also names how
    the trace is sampled, as :func:`repro.harness.runner.trial_identity`
    does.  The paper's default sampling adds nothing to the key, so a
    default sweep keeps the keys (and stored trials) it always had.
    """
    key = cache_key(
        kind="bbr_gain_sweep",
        gain=cwnd_gain,
        condition=condition.physical_key(),
        duration=config.duration_s,
        trial=trial,
        seed=config.seed,
    )
    seed = int(cache_key(kind="seed", base=key)[:8], 16)
    if config.sampling != SamplingConfig():
        key = cache_key(
            kind="bbr_gain_sweep",
            base=key,
            sampling=(
                config.sampling.sample_rtts,
                config.sampling.truncate_fraction,
            ),
        )
    return seed, key


def compute_gain_trial(
    cwnd_gain: float,
    condition: NetworkCondition,
    config: ExperimentConfig,
    trial: int,
) -> np.ndarray:
    """One modified-BBR trial.  Module-level (picklable) so the sweep can
    run through ``repro.exec`` with identical seeds/keys."""
    seed, _key = sweep_trial_identity(cwnd_gain, condition, config, trial)
    linux = registry.reference()
    test_spec = linux.flow_spec("bbr", label=f"bbr-gain-{cwnd_gain}")
    mss = test_spec.sender_config.mss
    test_spec.cca_factory = lambda: BBR(mss, BBRConfig(cwnd_gain=cwnd_gain))
    ref_spec = linux.flow_spec("bbr", label="bbr-ref")
    network = Network(
        condition.link_config(),
        [test_spec, ref_spec],
        seed=seed,
        base_jitter_s=condition.jitter_s(),
        start_spread_s=0.5,
    )
    results = network.run(config.duration_s)
    return sample_points(
        results[0].trace, base_rtt_s=condition.rtt_s, config=config.sampling
    )


def cwnd_gain_sweep(
    gains: Sequence[float] = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
    condition: Optional[NetworkCondition] = None,
    config: ExperimentConfig = ExperimentConfig(),
    executor: Optional["Executor"] = None,
) -> List[SweepPoint]:
    """Reproduce Fig. 5 over the given cwnd-gain values.

    Every (gain, trial) simulation runs as one campaign on ``executor``
    (default: a jobs=1 :class:`~repro.exec.Executor` over the
    process-wide cache); the points are evaluated from the values it
    returns — the reference trials first, then each gain's trials.  Every
    envelope comes from the process-wide memo
    (:func:`repro.harness.envelopes.memoized_envelope`), so the reference
    is built once and every gain is scored against it.
    """
    from repro.exec import Executor, sweep_trial_jobs

    condition = condition or scenarios.shallow_buffer()
    jobs = sweep_trial_jobs(gains, condition, config)
    values = (executor or Executor()).run(
        jobs, campaign=f"sweep:cwnd-gain@{condition.describe()}"
    )
    trials = config.trials
    # The reference trials, then each gain's trials.
    groups = [
        (jobs[start:start + trials], values[start:start + trials])
        for start in range(0, len(jobs), trials)
    ]
    reference = memoized_envelope(*groups[0], config.envelope)
    points: List[SweepPoint] = []
    for index, gain in enumerate(gains):
        result = evaluate_conformance(
            memoized_envelope(*groups[index + 1], config.envelope), reference
        )
        points.append(
            SweepPoint(
                cwnd_gain=gain,
                conformance=result.conformance,
                conformance_t=result.conformance_t,
                delta_throughput_mbps=result.delta_throughput_mbps,
                delta_delay_ms=result.delta_delay_ms,
            )
        )
    return points


def save_sweep_store(
    store: "ResultStore",
    run: str,
    points: Sequence[SweepPoint],
    condition: NetworkCondition,
) -> None:
    """Record one measurement per gain: modified kernel BBR
    (``linux-mod``/``bbr``, variant ``cwnd_gain=<gain>``) at ``condition``."""
    run_info = store.ensure_run(run, note="Fig. 5 cwnd-gain sweep")
    for point in points:
        store.record_metrics(
            run_info,
            stack="linux-mod",
            cca="bbr",
            variant=f"cwnd_gain={point.cwnd_gain:g}",
            condition=condition,
            metrics={
                "conf": point.conformance,
                "conf_t": point.conformance_t,
                "delta_tput_mbps": point.delta_throughput_mbps,
                "delta_delay_ms": point.delta_delay_ms,
            },
        )
