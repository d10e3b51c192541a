#!/usr/bin/env python3
"""Choosing a CCA for an application with Performance Envelopes.

Implements the paper's §6 idea ("Extending the Performance Envelope to
other applications"): an application declares the delay/throughput region
it wants to live in; the framework measures each candidate CCA's envelope
on the target network and ranks the candidates by overlap.

Two applications are profiled here:
* a live-streaming app with a tight delay budget, and
* a bulk-download app that only cares about throughput.

Expected outcome: BBR (which keeps queues short) wins the streaming
profile; CUBIC (the buffer-filler) wins bulk transfer in this deep-ish
buffer.

Run:  python examples/application_cca_selection.py
"""

from repro import ExperimentConfig, NetworkCondition
from repro.core import bulk_transfer_region, live_streaming_region, select_cca
from repro.harness import reporting
from repro.harness.conformance import reference_envelope


def main() -> None:
    # The app's target network: a 20 Mbps access link with a deep buffer.
    condition = NetworkCondition(bandwidth_mbps=20, rtt_ms=20, buffer_bdp=3)
    config = ExperimentConfig(duration_s=60.0, trials=3)

    print(f"Profiling kernel CCAs at {condition.describe()}...")
    candidates = {}
    for cca in ("cubic", "bbr", "reno"):
        candidates[cca] = reference_envelope(cca, condition, config)
        pts = candidates[cca].all_points
        print(f"  {cca:5s}: delay {pts[:,0].mean():5.1f} ms, "
              f"throughput {pts[:,1].mean():5.1f} Mbps over {len(pts)} samples")

    applications = {
        "live streaming (delay <= 45 ms, rate >= 4 Mbps)": live_streaming_region(
            rtt_budget_ms=45, min_rate_mbps=4
        ),
        "bulk download (rate >= 9 Mbps)": bulk_transfer_region(min_rate_mbps=9),
    }

    for name, region in applications.items():
        scores = select_cca(region, candidates)
        rows = [
            [s.name, round(s.point_fraction, 2), round(s.area_fraction, 2)]
            for s in scores
        ]
        print()
        print(reporting.format_table(
            ["CCA", "points in region", "area in region"],
            rows,
            title=f"Ranking for: {name}",
        ))
        print(f"-> recommended: {scores[0].name}")


if __name__ == "__main__":
    main()
