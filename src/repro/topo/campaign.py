"""Topology campaigns: trial jobs, identity, and warehouse recording.

A topology campaign measures K topologies x T trials; the unit of work
is one :class:`~repro.topo.compile.TopoNetwork` run reduced to its
windowed per-flow throughput matrix (see :mod:`repro.topo.metrics`).
Trial identity follows the harness discipline exactly: the seed and
cache key both derive from the topology's canonical fingerprint plus
the measurement protocol, through the same
:func:`repro.harness.cache.cache_key` machinery the conformance
pipeline uses — so in-process runs, ``repro.exec`` pools and the campaign
service all dedupe against the same content-addressed trial keys, and
an identical resubmission is served entirely from cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.harness.cache import cache_key
from repro.harness.runner import _trial_seed
from repro.topo import metrics
from repro.topo.compile import TopoNetwork
from repro.topo.spec import TopologySpec, parse_topology_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import Executor
    from repro.exec.jobs import Job
    from repro.service.specs import CampaignSpec
    from repro.store.warehouse import ResultStore

#: Window width for the throughput matrices (seconds).  Fixed for the
#: campaign type so trial payloads stay comparable across runs.
WINDOW_S = 1.0

_MSS = 1448


def base_jitter_s(spec: TopologySpec) -> float:
    """Phase-breaking jitter, derived from the tightest link.

    Mirrors :meth:`repro.harness.config.NetworkCondition.jitter_s`: capped
    at a quarter millisecond and below half the bottleneck's packet
    serialization time so jitter can never masquerade as reordering.
    """
    slowest = min(link.bandwidth_mbps for link in spec.links)
    serialization = _MSS * 8 / (slowest * 1e6)
    return min(0.25e-3, serialization / 2)


def bottleneck_bps(spec: TopologySpec) -> float:
    """The topology's tightest link rate, bits per second."""
    return min(link.bandwidth_mbps for link in spec.links) * 1e6


def delivered_capacity_bps(spec: TopologySpec) -> float:
    """Aggregate egress capacity: distinct final-hop links, summed.

    Every delivered bit exits through some flow's last routed link, so
    the sum of those links' rates bounds the topology's deliverable
    throughput — unlike the single tightest link, which under-counts
    parking-lot shapes where cross flows exit on different hops.  For a
    one-link topology this reduces to the bottleneck rate.
    """
    names = spec.link_names()
    last_hops = set()
    for flow in spec.flows:
        route = flow.resolved_route(names)
        last_hops.add(route[0] if flow.direction == "reverse" else route[-1])
    by_name = {link.name: link for link in spec.links}
    return sum(by_name[name].bandwidth_mbps for name in last_hops) * 1e6


def _finite_or_none(value: float) -> Optional[float]:
    return float(value) if np.isfinite(value) else None


def topo_trial_identity(
    spec: TopologySpec,
    duration_s: float,
    base_seed: int,
    trial: int,
    window_s: float = WINDOW_S,
) -> Tuple[int, str]:
    """The (seed, cache key) pair identifying one topology trial."""
    fingerprint = spec.fingerprint()
    seed = _trial_seed(base_seed, "topo", fingerprint, trial)
    key = cache_key(
        kind="topology_trial",
        topology=fingerprint,
        duration=duration_s,
        window=window_s,
        seed=seed,
    )
    return seed, key


def compute_topology_matrix(
    spec_doc: dict,
    duration_s: float,
    base_seed: int,
    trial: int,
    window_s: float = WINDOW_S,
) -> np.ndarray:
    """One trial's windowed per-flow throughput matrix.

    Module-level and argument-picklable (the topology travels as its
    canonical dict) so one trial is one ``repro.exec`` job, in-process or
    in a pool worker.
    """
    spec = parse_topology_spec(spec_doc)
    seed, _key = topo_trial_identity(spec, duration_s, base_seed, trial, window_s)
    network = TopoNetwork(spec, seed=seed, base_jitter_s=base_jitter_s(spec))
    network.run(duration_s)
    return metrics.throughput_matrix(network.traces, duration_s, window_s)


def topology_trial_jobs(
    spec: TopologySpec,
    duration_s: float,
    trials: int,
    base_seed: int,
    window_s: float = WINDOW_S,
) -> List["Job"]:
    """One executor job per trial of one topology."""
    from repro.exec.jobs import Job

    jobs = []
    for trial in range(trials):
        _seed, key = topo_trial_identity(
            spec, duration_s, base_seed, trial, window_s
        )
        jobs.append(
            Job(
                fn=compute_topology_matrix,
                args=(spec.canonical(), duration_s, base_seed, trial),
                kwargs={"window_s": window_s},
                key=key,
                label=f"topo {spec.name} trial {trial}",
            )
        )
    return jobs


class TopologyCondition:
    """The warehouse condition describing one topology.

    Duck-types :class:`~repro.harness.config.NetworkCondition` for
    ``ResultStore.record_metrics``: the numeric columns carry the
    tightest link's parameters, and the ``condition`` string column —
    what ``store query --condition`` matches — carries the topology name.
    """

    def __init__(self, spec: TopologySpec):
        tightest = min(spec.links, key=lambda link: link.bandwidth_mbps)
        self.bandwidth_mbps = tightest.bandwidth_mbps
        self.rtt_ms = 2 * sum(link.delay_ms for link in spec.links)
        self.buffer_bdp = (
            tightest.buffer_bdp if tightest.buffer_bytes is None else 0.0
        )
        self._name = spec.name

    def describe(self) -> str:
        return self._name


def aggregate_trials(
    trial_matrices: List[np.ndarray], window_s: float = WINDOW_S
) -> Dict[str, np.ndarray]:
    """Mean per-trial metrics: shares/tputs per flow, jain, convergence."""
    per_trial = [metrics.summarize(m, window_s=window_s) for m in trial_matrices]
    shares = np.mean([t["shares"] for t in per_trial], axis=0)
    tputs = np.mean([t["tput_mbps"] for t in per_trial], axis=0)
    jains = np.array([t["jain"] for t in per_trial], dtype=float)
    convergences = np.array([t["convergence_s"] for t in per_trial], dtype=float)
    return {
        "shares": shares,
        "tput_mbps": tputs,
        "jain": float(jains.mean()),
        "convergence_s": float(np.nanmean(convergences))
        if not np.all(np.isnan(convergences))
        else float("nan"),
    }


def run_topology_campaign(
    spec: "CampaignSpec",
    store: Optional["ResultStore"],
    executor: "Executor",
) -> dict:
    """Run every topology of a ``"topology"`` campaign and record it.

    Every trial of every topology runs as one campaign on ``executor``;
    the values come from :func:`compute_topology_matrix`, so results are
    bit-identical at any job count.
    Per-flow rows land under ``variant=<flow label>`` with the topology
    name as the condition; one aggregate row per topology carries Jain's
    index, convergence time and bottleneck utilization.
    """
    config = spec.experiment_config()
    duration_s = config.duration_s
    jobs: List["Job"] = []
    spans: List[Tuple[TopologySpec, int, int]] = []
    for topo in spec.topologies:
        topo_jobs = topology_trial_jobs(
            topo, duration_s, config.trials, config.seed
        )
        spans.append((topo, len(jobs), len(jobs) + len(topo_jobs)))
        jobs.extend(topo_jobs)

    values = executor.run(jobs, campaign=spec.run_name())

    run = None
    if store is not None:
        run = store.ensure_run(
            spec.run_name(),
            note=spec.note or "topology fairness/convergence campaign",
            config=spec.canonical(),
        )

    cells = 0
    results: List[dict] = []
    for topo, start, end in spans:
        matrices = values[start:end]
        if not matrices:
            continue
        summary = aggregate_trials(matrices)
        condition = TopologyCondition(topo)
        util = float(
            np.mean([
                metrics.utilization(m, delivered_capacity_bps(topo))
                for m in matrices
            ])
        )
        convergence = _finite_or_none(summary["convergence_s"])
        flows = []
        for i, flow in enumerate(topo.flows):
            flow_metrics = {
                "share": float(summary["shares"][i]),
                "tput_mbps": float(summary["tput_mbps"][i]),
                "convergence_s": convergence,
            }
            if store is not None:
                store.record_metrics(
                    run,
                    stack=flow.stack,
                    cca=flow.cca,
                    variant=flow.label,
                    condition=condition,
                    # NaN round-trips badly through SQL and JSON; a run
                    # that never converged simply has no such metric.
                    metrics={
                        k: v for k, v in flow_metrics.items() if v is not None
                    },
                )
            cells += 1
            flows.append({"label": flow.label, **flow_metrics})
        aggregate = {
            "jain": summary["jain"],
            "convergence_s": convergence,
            "utilization": util,
        }
        if store is not None:
            store.record_metrics(
                run,
                stack="topology",
                cca="aggregate",
                variant="default",
                condition=condition,
                metrics={k: v for k, v in aggregate.items() if v is not None},
            )
        results.append({
            "topology": topo.name,
            "fingerprint": topo.fingerprint(),
            "flows": flows,
            **aggregate,
        })
    return {"runs": spec.run_names(), "cells": cells, "topologies": results}


__all__ = [
    "WINDOW_S",
    "TopologyCondition",
    "aggregate_trials",
    "base_jitter_s",
    "bottleneck_bps",
    "compute_topology_matrix",
    "delivered_capacity_bps",
    "run_topology_campaign",
    "topo_trial_identity",
    "topology_trial_jobs",
]
