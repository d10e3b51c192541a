"""Peer-conformance campaigns: trial jobs, identity, and recording.

A peer-conformance campaign measures a *peer group* of CCAs without a
kernel reference: every peer runs self-competition trials (X vs X, the
same construction the kernel anchor uses for itself) on a neutral host
stack, per-peer Performance Envelopes are built, and the group is
clustered against itself (:mod:`repro.core.peer`).

Trial identity follows the harness discipline exactly — a peer trial
*is* a pair trial of ``Impl(host, peer)`` against itself, so the seed
and cache key come from :func:`repro.harness.runner.trial_identity`
unchanged.  In-process runs, ``repro.exec`` pools and the campaign service
therefore dedupe against the same content-addressed keys, an identical
resubmission is served entirely from cache, and peer trials even dedupe
against ordinary harness trials of the same pair.

External CCAs participate with zero core edits: the spec carries
``cca_modules`` (user module paths), and :func:`compute_peer_trial`
loads them through :func:`repro.ccax.registry.load_modules` before
resolving the flow — in the scheduler's process *and* in every spawned
worker, which imports this module fresh.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.peer import PeerConformanceResult, evaluate_peer_conformance
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.runner import Impl, sampled_points, trial_identity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import Executor
    from repro.exec.jobs import Job
    from repro.service.specs import CampaignSpec
    from repro.store.warehouse import ResultStore

#: Default neutral host for peers: the reference stack's transport
#: config, chosen for its deviation-free sender path — the *stack* is
#: not what a peer campaign measures.
DEFAULT_HOST_STACK = "linux"

#: Maximum candidate cluster count for the peer k-selection.
PEER_K_MAX = 4


def peer_trial_identity(
    host_stack: str,
    peer: str,
    condition: NetworkCondition,
    config: ExperimentConfig,
    trial: int,
) -> Tuple[int, str]:
    """The (seed, cache key) pair identifying one peer trial.

    Delegates to :func:`repro.harness.runner.trial_identity` for the
    self-competition pair, so peer campaigns share trial identity (and
    cache entries) with every other campaign kind.
    """
    impl = Impl(host_stack, peer)
    return trial_identity(impl, impl, condition, config, trial)


def compute_peer_trial(
    host_stack: str,
    peer: str,
    condition: NetworkCondition,
    config: ExperimentConfig,
    trial: int,
    cca_modules: Tuple[str, ...] = (),
) -> np.ndarray:
    """One self-competition trial's sampled point cloud.

    Module-level and argument-picklable so one trial is one
    ``repro.exec`` job; loads any user CCA modules first so externally
    registered peers resolve inside spawned workers.
    """
    if cca_modules:
        from repro.ccax import registry

        registry.load_modules(cca_modules)
    impl = Impl(host_stack, peer)
    return sampled_points(impl, impl, condition, config, trial)


def peer_trial_jobs(
    peers: Sequence[str],
    condition: NetworkCondition,
    config: ExperimentConfig,
    host_stack: str = DEFAULT_HOST_STACK,
    cca_modules: Tuple[str, ...] = (),
) -> List["Job"]:
    """One executor job per (peer, trial) of one condition."""
    from repro.exec.jobs import Job

    jobs: List[Job] = []
    for peer in peers:
        for trial in range(config.trials):
            _seed, key = peer_trial_identity(
                host_stack, peer, condition, config, trial
            )
            jobs.append(
                Job(
                    fn=compute_peer_trial,
                    args=(host_stack, peer, condition, config, trial),
                    kwargs={"cca_modules": tuple(cca_modules)},
                    key=key,
                    label=(
                        f"peer {host_stack}/{peer} trial {trial} @ "
                        f"{condition.describe()}"
                    ),
                )
            )
    return jobs


def evaluate_peer_group(
    peers: Sequence[str],
    condition: NetworkCondition,
    config: ExperimentConfig,
    host_stack: str = DEFAULT_HOST_STACK,
    cca_modules: Tuple[str, ...] = (),
    executor: Optional["Executor"] = None,
) -> PeerConformanceResult:
    """Run every peer's trials as one campaign on ``executor`` (default:
    a jobs=1 :class:`~repro.exec.Executor` over the process-wide cache)
    and evaluate the peer-conformance engine on the values it returns."""
    from repro.exec import Executor

    values = (executor or Executor()).run(
        peer_trial_jobs(peers, condition, config, host_stack, tuple(cca_modules)),
        campaign=f"peers@{condition.describe()}",
    )
    trials = config.trials
    trials_by_peer: Dict[str, List[np.ndarray]] = {
        peer: values[i * trials:(i + 1) * trials] for i, peer in enumerate(peers)
    }
    return evaluate_peer_conformance(
        trials_by_peer,
        config.envelope,
        seed=config.seed,
        k_max=PEER_K_MAX,
    )


def record_peer_result(
    store: "ResultStore",
    run,
    result: PeerConformanceResult,
    condition: NetworkCondition,
) -> int:
    """Warehouse rows for one evaluated peer group at one condition.

    Per-pair rows follow the share-matrix convention — ``stack`` is the
    row peer, ``cca`` the column peer — under ``variant="peer"``; one
    aggregate row per peer (``cca="aggregate"``) carries the
    peer-conformance score, its cluster and the selected k.
    """
    cells = 0
    clusters = result.clusters()
    for i, row_peer in enumerate(result.peers):
        for j, col_peer in enumerate(result.peers):
            if i == j:
                continue
            store.record_metrics(
                run,
                stack=row_peer,
                cca=col_peer,
                variant="peer",
                condition=condition,
                metrics={
                    "peer_conf": float(result.matrix[i, j]),
                    "peer_distance": float(1.0 - result.matrix[i, j]),
                },
            )
            cells += 1
        store.record_metrics(
            run,
            stack=row_peer,
            cca="aggregate",
            variant="default",
            condition=condition,
            metrics={
                "peer_score": float(result.scores[i]),
                "cluster": float(clusters[row_peer]),
                "k": float(result.k),
            },
        )
        cells += 1
    return cells


def run_peer_conformance_campaign(
    spec: "CampaignSpec",
    store: Optional["ResultStore"],
    executor: "Executor",
) -> dict:
    """Run a ``"peer_conformance"`` campaign and record it.

    Each condition's trials run as one campaign on ``executor``; every
    job calls :func:`compute_peer_trial`, so results are bit-identical
    at any job count.
    """
    from repro.faults import inject

    config = spec.experiment_config()
    peers = list(spec.peers)
    host_stack = spec.host_stack or DEFAULT_HOST_STACK
    cca_modules = tuple(spec.cca_modules)
    if cca_modules:
        from repro.ccax import registry

        registry.load_modules(cca_modules)

    run = None
    if store is not None:
        run = store.ensure_run(
            spec.run_name(),
            note=spec.note or "reference-free peer-conformance campaign",
            config=spec.canonical(),
        )

    cells = 0
    groups: List[dict] = []
    for condition in spec.resolved_conditions():
        result = evaluate_peer_group(
            peers,
            condition,
            config,
            host_stack=host_stack,
            cca_modules=cca_modules,
            executor=executor,
        )
        inject.fault_point(
            "peer_conformance.evaluate", condition=condition.describe()
        )
        if store is not None:
            cells += record_peer_result(store, run, result, condition)
        groups.append(
            {"condition": condition.describe(), **result.summary()}
        )
    return {
        "runs": spec.run_names(),
        "cells": cells,
        "peer_conformance": groups,
    }


__all__ = [
    "DEFAULT_HOST_STACK",
    "PEER_K_MAX",
    "compute_peer_trial",
    "evaluate_peer_group",
    "peer_trial_identity",
    "peer_trial_jobs",
    "record_peer_result",
    "run_peer_conformance_campaign",
]
