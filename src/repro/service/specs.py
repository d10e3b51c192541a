"""Campaign specifications: the validated unit of work of every campaign.

A *campaign spec* is the JSON document a client POSTs to
``/campaigns`` and the one every CLI campaign command builds from its
flags: which kind of experiment to run (:data:`KIND_FIELDS` names the
kinds and the fields each reads), over which implementations, network
conditions, :mod:`repro.topo` topologies or :mod:`repro.ccax` CCA
peers, under which measurement protocol.  Parsing is strict — every
field is validated against :mod:`repro.harness.config` and the stack
registry, and a field the kind does not read is rejected, so a bad
request fails at submit time with a useful message instead of hours
into a queue.

Specs are value objects: :meth:`CampaignSpec.canonical` renders the
fully-defaulted spec as a sorted-key JSON document, and
:meth:`CampaignSpec.fingerprint` hashes it.  The scheduler journals the
canonical form into the store's events table, which is what lets a
restarted service reconstruct and resume pending campaigns bit-exactly.

Execution is a thin dispatch onto the harness drivers
(:func:`execute_campaign`), so a campaign records exactly the metrics a
direct harness call records, whether the CLI, the service or a fabric
worker runs it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Mapping, Optional, Sequence, Tuple

from repro.harness import scenarios
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.stacks import registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec import Executor
    from repro.store.warehouse import ResultStore
    from repro.topo.spec import TopologySpec


class SpecError(ValueError):
    """A campaign spec failed validation (reported as HTTP 400)."""


#: Fields every kind reads: the measurement protocol and the store run.
_COMMON_FIELDS = {"kind", "duration_s", "trials", "seed", "run", "note"}

#: The further fields each kind reads.  A non-empty field outside its
#: kind's set would be silently ignored, so parsing rejects it.
KIND_FIELDS = {
    "conformance": {"stacks", "ccas", "conditions"},
    "matrix": {"stacks", "ccas", "conditions"},
    "regression": {"stacks", "ccas", "conditions"},
    "topology": {"topologies"},
    "peer_conformance": {"peers", "host_stack", "cca_modules", "conditions"},
    "fairness": {"ccas", "conditions"},
    "inter_cca": {"ccas", "conditions"},
    "sweep": {"conditions"},
    "fixes": {"conditions"},
}

#: Campaign kinds the service accepts.
KINDS = tuple(KIND_FIELDS)

#: Kinds that measure at exactly one condition.
_ONE_CONDITION = ("regression", "fairness", "inter_cca", "sweep", "fixes")

#: CCAs the share-matrix kinds name: one, or (row CCA, column CCA).
_CCA_COUNT = {"fairness": 1, "inter_cca": 2}

#: Fields a spec document may carry; anything else is a typo we reject.
_ALLOWED_FIELDS = _COMMON_FIELDS.union(*KIND_FIELDS.values())


@dataclass(frozen=True)
class CampaignSpec:
    """One validated campaign: what to measure and how to record it."""

    kind: str
    stacks: Tuple[str, ...] = ()
    ccas: Tuple[str, ...] = ()
    conditions: Tuple[NetworkCondition, ...] = ()
    #: Topology campaigns only: the TopologySpecs to measure.
    topologies: Tuple["TopologySpec", ...] = ()
    #: Peer-conformance campaigns only: the CCA peer group, the neutral
    #: host stack carrying them, and user modules registering external
    #: CCAs (loaded through :func:`repro.ccax.registry.load_modules`).
    peers: Tuple[str, ...] = ()
    host_stack: str = ""
    cca_modules: Tuple[str, ...] = ()
    duration_s: Optional[float] = None
    trials: Optional[int] = None
    seed: Optional[int] = None
    #: Store run name (run-name *prefix* for regression campaigns).
    run: str = ""
    note: str = ""

    # ------------------------------------------------------------ identity

    def canonical(self) -> dict:
        """The fully-defaulted spec as a plain JSON-serialisable dict."""
        doc = {
            "kind": self.kind,
            "stacks": list(self.stacks),
            "ccas": list(self.ccas),
            "conditions": [
                {
                    "bandwidth_mbps": c.bandwidth_mbps,
                    "rtt_ms": c.rtt_ms,
                    "buffer_bdp": c.buffer_bdp,
                }
                for c in self.conditions
            ],
            "duration_s": self.duration_s,
            "trials": self.trials,
            "seed": self.seed,
            "run": self.run,
            "note": self.note,
        }
        # Only topology campaigns carry the key, so every pre-existing
        # kind keeps its historical fingerprint (journaled canonical
        # specs from older runs must keep resuming bit-exactly).
        if self.topologies:
            doc["topologies"] = [t.canonical() for t in self.topologies]
        # Same care for the peer-conformance fields: emitted only when
        # set, so every older kind's fingerprint is untouched.
        if self.peers:
            doc["peers"] = list(self.peers)
        if self.host_stack:
            doc["host_stack"] = self.host_stack
        if self.cca_modules:
            doc["cca_modules"] = list(self.cca_modules)
        return doc

    def fingerprint(self) -> str:
        """Stable content hash of the canonical spec."""
        payload = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # ----------------------------------------------------------- execution

    def experiment_config(self) -> ExperimentConfig:
        return ExperimentConfig().overridden(
            duration_s=self.duration_s, trials=self.trials, seed=self.seed
        )

    def implementations(self) -> List[Tuple[str, str]]:
        """(stack, cca) cells this campaign measures, in a stable order."""
        if self.kind == "peer_conformance":
            from repro.ccax.campaign import DEFAULT_HOST_STACK

            host = self.host_stack or DEFAULT_HOST_STACK
            return [(host, peer) for peer in self.peers]
        stacks = (
            list(self.stacks)
            if self.stacks
            else [p.name for p in registry.quic_stacks()]
        )
        ccas = list(self.ccas) if self.ccas else list(registry.CCAS)
        return [
            (stack, cca)
            for stack in stacks
            for cca in ccas
            if registry.get_stack(stack).supports(cca)
        ]

    def resolved_conditions(self) -> List[NetworkCondition]:
        if self.conditions:
            return list(self.conditions)
        if self.kind == "matrix":
            return scenarios.buffer_sweep()
        if self.kind in _CCA_COUNT:
            return [scenarios.fairness_condition()]
        return [scenarios.shallow_buffer()]

    def run_name(self) -> str:
        """Store run name (prefix for regression) holding the results."""
        if self.run:
            return self.run
        return f"{self.kind}:{self.fingerprint()[:12]}"

    def run_names(self) -> List[str]:
        """Every store run this campaign writes into."""
        if self.kind == "regression":
            from repro.harness.regression import MILESTONES, milestone_run_name

            return [
                milestone_run_name(m, prefix=self.run_name()) for m in MILESTONES
            ]
        return [self.run_name()]


def parse_campaign_spec(payload: Mapping) -> CampaignSpec:
    """Validate a client JSON document into a :class:`CampaignSpec`.

    Raises :class:`SpecError` with a message precise enough to fix the
    request: unknown fields, unknown stacks/CCAs, unsupported
    (stack, cca) sets, and physically invalid network conditions are all
    caught here, before anything is queued.
    """
    if not isinstance(payload, Mapping):
        raise SpecError("campaign spec must be a JSON object")
    unknown = set(payload) - _ALLOWED_FIELDS
    if unknown:
        raise SpecError(
            f"unknown spec field(s): {', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(sorted(_ALLOWED_FIELDS))})"
        )
    kind = payload.get("kind")
    if kind not in KINDS:
        raise SpecError(
            f"spec.kind must be one of {', '.join(KINDS)}; got {kind!r}"
        )
    for name in sorted(set(payload) - _COMMON_FIELDS - KIND_FIELDS[kind]):
        if payload[name]:
            users = [k for k in KINDS if name in KIND_FIELDS[k]]
            raise SpecError(
                f"spec.{name} is only valid for kind(s) {', '.join(users)}; "
                f"for {kind!r} it must be empty"
            )

    stacks = _string_list(payload, "stacks")
    for stack in stacks:
        if stack not in registry.STACKS:
            raise SpecError(
                f"unknown stack {stack!r} "
                f"(known: {', '.join(sorted(registry.STACKS))})"
            )
    ccas = _string_list(payload, "ccas")
    for cca in ccas:
        # Any CCA registered with repro.ccax qualifies — the kernel trio
        # plus the model-based and real-time families, plus externals
        # already loaded into this process.
        if cca not in registry.registered_ccas():
            raise SpecError(
                f"unknown cca {cca!r} "
                f"(registered: {', '.join(registry.registered_ccas())})"
            )

    conditions = []
    raw_conditions = payload.get("conditions", [])
    if not isinstance(raw_conditions, Sequence) or isinstance(
        raw_conditions, (str, bytes)
    ):
        raise SpecError("spec.conditions must be a list of objects")
    for i, raw in enumerate(raw_conditions):
        if not isinstance(raw, Mapping):
            raise SpecError(f"spec.conditions[{i}] must be an object")
        extra = set(raw) - {"bandwidth_mbps", "rtt_ms", "buffer_bdp"}
        if extra:
            raise SpecError(
                f"spec.conditions[{i}] has unknown field(s): "
                f"{', '.join(sorted(extra))}"
            )
        try:
            conditions.append(
                NetworkCondition(
                    bandwidth_mbps=float(raw.get("bandwidth_mbps", 20.0)),
                    rtt_ms=float(raw.get("rtt_ms", 10.0)),
                    buffer_bdp=float(raw.get("buffer_bdp", 1.0)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise SpecError(f"spec.conditions[{i}] is invalid: {exc}")

    topologies = _parse_topologies(payload)
    if kind == "topology" and not topologies:
        raise SpecError(
            "topology campaigns need a non-empty spec.topologies list"
        )
    peers, host_stack, cca_modules = _parse_peer_fields(payload, kind)
    if kind in _CCA_COUNT and len(ccas) != _CCA_COUNT[kind]:
        raise SpecError(
            f"{kind} campaigns name exactly {_CCA_COUNT[kind]} CCA(s) "
            f"in spec.ccas; got {len(ccas)}"
        )
    if kind in _ONE_CONDITION and len(conditions) > 1:
        raise SpecError(
            f"{kind} campaigns run at one condition; "
            f"spec.conditions has {len(conditions)}"
        )

    duration_s = _number(payload, "duration_s")
    trials = _number(payload, "trials", integral=True)
    seed = _number(payload, "seed", integral=True)
    try:
        # Construct once so ExperimentConfig's own validation (positive
        # duration, >= 1 trial) runs at submit time.
        spec = CampaignSpec(
            kind=kind,
            stacks=tuple(stacks),
            ccas=tuple(ccas),
            conditions=tuple(conditions),
            topologies=topologies,
            peers=peers,
            host_stack=host_stack,
            cca_modules=cca_modules,
            duration_s=duration_s,
            trials=trials,
            seed=seed,
            run=str(payload.get("run", "") or ""),
            note=str(payload.get("note", "") or ""),
        )
        spec.experiment_config()
    except ValueError as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(str(exc))
    if "ccas" in KIND_FIELDS[kind] and not spec.implementations():
        raise SpecError(
            "spec selects no implementations: none of the requested "
            "stacks supports any of the requested CCAs"
        )
    return spec


def _parse_topologies(payload: Mapping) -> Tuple["TopologySpec", ...]:
    raw = payload.get("topologies", [])
    if not raw:
        return ()
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise SpecError("spec.topologies must be a list of topology objects")
    from repro.topo.spec import TopoSpecError, parse_topology_spec

    topologies = []
    for i, doc in enumerate(raw):
        try:
            topologies.append(parse_topology_spec(doc))
        except TopoSpecError as exc:
            raise SpecError(f"spec.topologies[{i}] is invalid: {exc}")
    names = [t.name for t in topologies]
    if len(set(names)) != len(names):
        raise SpecError("spec.topologies contains duplicate topology names")
    return tuple(topologies)


def _parse_peer_fields(
    payload: Mapping, kind: str
) -> Tuple[Tuple[str, ...], str, Tuple[str, ...]]:
    """Validate peers / host_stack / cca_modules for peer campaigns.

    ``cca_modules`` are loaded *here*, at submit time, so a broken or
    missing user module fails the POST with a 400 instead of hours
    later in a worker — and so the peer names they register are
    available for validation immediately below.
    """
    if kind != "peer_conformance":
        return (), "", ()
    peers = _string_list(payload, "peers")
    host_stack = str(payload.get("host_stack", "") or "")
    cca_modules = _string_list(payload, "cca_modules")
    if not peers:
        raise SpecError(
            "peer_conformance campaigns need a non-empty spec.peers list"
        )
    if len(set(peers)) != len(peers):
        raise SpecError("spec.peers contains duplicate peer names")
    if host_stack and host_stack not in registry.STACKS:
        raise SpecError(
            f"unknown host_stack {host_stack!r} "
            f"(known: {', '.join(sorted(registry.STACKS))})"
        )
    from repro.ccax import registry as ccax
    from repro.ccax.campaign import DEFAULT_HOST_STACK

    if cca_modules:
        try:
            ccax.load_modules(cca_modules)
        except Exception as exc:
            raise SpecError(f"spec.cca_modules failed to load: {exc}")
    for peer in peers:
        if not ccax.is_registered(peer):
            raise SpecError(
                f"unknown peer cca {peer!r} "
                f"(registered: {', '.join(ccax.names())})"
            )
    host = host_stack or DEFAULT_HOST_STACK
    profile = registry.get_stack(host)
    for peer in peers:
        if not profile.supports(peer):
            raise SpecError(
                f"host stack {host!r} does not host peer cca {peer!r}"
            )
    return tuple(peers), host_stack, tuple(cca_modules)


def _string_list(payload: Mapping, field_name: str) -> List[str]:
    raw = payload.get(field_name, [])
    if isinstance(raw, str):
        raw = [raw]
    if not isinstance(raw, Sequence):
        raise SpecError(f"spec.{field_name} must be a list of strings")
    out = []
    for item in raw:
        if not isinstance(item, str):
            raise SpecError(f"spec.{field_name} must be a list of strings")
        out.append(item)
    return out


def _number(payload: Mapping, field_name: str, integral: bool = False):
    raw = payload.get(field_name)
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise SpecError(f"spec.{field_name} must be a number")
    if integral:
        if float(raw) != int(raw):
            raise SpecError(f"spec.{field_name} must be an integer")
        return int(raw)
    return float(raw)


def execute_campaign(
    spec: CampaignSpec,
    store: Optional["ResultStore"],
    executor: "Executor",
) -> dict:
    """Run one campaign through the harness, recording into ``store``.

    Returns a summary dict: the runs written, the cells measured and the
    data a report prints — as JSON for topology and peer kinds, as the
    harness result object under ``"result"`` (dropped before the summary
    is serialised) for the others.  The drivers are the ones a direct
    harness call uses, so service results are bit-identical to local ones.
    """
    if spec.kind == "topology":
        from repro.topo.campaign import run_topology_campaign

        return run_topology_campaign(spec, store, executor)
    if spec.kind == "peer_conformance":
        from repro.ccax.campaign import run_peer_conformance_campaign

        return run_peer_conformance_campaign(spec, store, executor)
    config = spec.experiment_config()
    condition = spec.resolved_conditions()[0]
    run = spec.run_name()
    if spec.kind == "regression":
        from repro.harness.regression import regression_matrix

        result = regression_matrix(
            implementations=spec.implementations(),
            condition=condition,
            config=config,
            executor=executor,
            store=store,
            run_prefix=run,
        )
        cells = sum(len(row.conformance) for row in result)
    elif spec.kind in _CCA_COUNT:
        from repro.harness.fairness import inter_cca_matrix, intra_cca_matrix

        if spec.kind == "fairness":
            result = intra_cca_matrix(
                spec.ccas[0], condition, config, executor=executor
            )
        else:
            result = inter_cca_matrix(
                *spec.ccas, condition, config, executor=executor
            )
        if store is not None:
            result.save_store(store, run, condition)
        cells = result.shares.size
    elif spec.kind == "sweep":
        from repro.analysis.sweeps import cwnd_gain_sweep, save_sweep_store

        result = cwnd_gain_sweep(
            condition=condition, config=config, executor=executor
        )
        if store is not None:
            save_sweep_store(store, run, result, condition)
        cells = len(result)
    elif spec.kind == "fixes":
        from repro.analysis.fixes import evaluate_all_fixes

        result = evaluate_all_fixes(condition, config, executor)
        cells = sum(1 + (outcome.after is not None) for outcome in result)
    else:
        from repro.harness.matrix import run_matrix

        result = run_matrix(
            conditions=spec.resolved_conditions(),
            implementations=spec.implementations(),
            config=config,
            executor=executor,
            store=store,
            store_run=run,
        )
        cells = len(result.measurements)
    return {"runs": spec.run_names(), "cells": cells, "result": result}


__all__ = [
    "KINDS",
    "CampaignSpec",
    "SpecError",
    "parse_campaign_spec",
    "execute_campaign",
]
