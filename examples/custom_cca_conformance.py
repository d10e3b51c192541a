#!/usr/bin/env python3
"""Testing a brand-new CCA implementation against the kernel reference.

The framework is not limited to the 11 stacks of the paper: any object
implementing :class:`repro.cca.base.CongestionController` can be measured.
This example defines "SluggishReno" — a Reno variant whose author halved
the additive increase "to be gentle" — and shows the conformance metrics
flagging it with a negative Δ-throughput.

It also demonstrates driving the simulator directly (building FlowSpecs
by hand) instead of going through the stack registry.

Run:  python examples/custom_cca_conformance.py
"""

from repro.cca import NewReno
from repro.core import build_envelope, evaluate_conformance, sample_points
from repro.harness import reporting, scenarios
from repro.netsim import FlowSpec, Network, SenderConfig
from repro.stacks import registry


def run_trial(test_factory, seed, condition, duration=60.0):
    """One trial: the candidate vs kernel Reno; returns the PE points."""
    test_spec = FlowSpec(
        label="candidate",
        cca_factory=test_factory,
        sender_config=SenderConfig(mss=1448, loss_style="quic"),
    )
    ref_spec = registry.reference().flow_spec("reno", label="kernel-reno")
    network = Network(
        condition.link_config(),
        [test_spec, ref_spec],
        seed=seed,
        base_jitter_s=condition.jitter_s(),
        start_spread_s=0.5,
    )
    results = network.run(duration)
    return sample_points(results[0].trace, base_rtt_s=condition.rtt_s)


def main() -> None:
    condition = scenarios.shallow_buffer()

    def sluggish_reno():
        # The "gentle" variant: half the additive increase.
        return NewReno(1448, ai_scale=0.5)

    def kernel_reno():
        return NewReno(1448)

    print("Running 3 trials of SluggishReno vs kernel Reno...")
    test_trials = [run_trial(sluggish_reno, seed, condition) for seed in (1, 2, 3)]
    print("Running 3 reference trials (kernel Reno vs itself)...")
    ref_trials = [run_trial(kernel_reno, seed, condition) for seed in (11, 12, 13)]

    result = evaluate_conformance(test_trials, build_envelope(ref_trials))
    rows = [[
        round(result.conformance, 2),
        round(result.conformance_t, 2),
        f"{result.delta_throughput_mbps:+.1f}",
        f"{result.delta_delay_ms:+.1f}",
    ]]
    print()
    print(reporting.format_table(
        ["Conf", "Conf-T", "d-tput (Mbps)", "d-delay (ms)"],
        rows,
        title="SluggishReno conformance to kernel Reno",
    ))
    print()
    if result.delta_throughput_mbps < -0.5:
        print("Δ-tput is negative: the candidate systematically underuses its")
        print("fair share — exactly what halving the additive increase does.")


if __name__ == "__main__":
    main()
