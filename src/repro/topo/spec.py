"""Declarative topology and flow specifications.

A :class:`TopologySpec` describes one heterogeneous-flow scenario the
way CoCo-Beholder describes its testbeds: named links (bandwidth,
one-way delay, queue discipline, buffer) wired into a chain, and
:class:`FlowEntry` rows giving each flow its implementation (stack, CCA,
variant), direction, start/end time, route and extra path delay.

Specs are value objects with exactly the identity discipline of
``service.specs`` campaign specs: :meth:`TopologySpec.canonical` renders
the fully-defaulted spec as a plain JSON-serialisable dict and
:meth:`TopologySpec.fingerprint` hashes its sorted-key JSON form, so a
spec loaded from a differently-ordered JSON document fingerprints
identically.  :func:`parse_topology_spec` is the strict loader: unknown
fields, unknown links in routes, cyclic routes, unknown stacks/CCAs and
unphysical link parameters all fail at parse time with a message precise
enough to fix the document.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.netsim.aqm import DISCIPLINES, disciplines
from repro.netsim.network import LinkConfig
from repro.stacks import registry

#: Flow directions: "forward" flows traverse their route left-to-right
#: on the forward link instances; "reverse" flows traverse it
#: right-to-left on the independent reverse instances (full duplex).
DIRECTIONS = ("forward", "reverse")


class TopoSpecError(ValueError):
    """A topology spec failed validation."""


@dataclass(frozen=True)
class LinkEntry:
    """One named full-duplex link of the topology."""

    name: str
    bandwidth_mbps: float = 20.0
    #: One-way propagation delay of this link (the dumbbell's ``rtt/2``).
    delay_ms: float = 25.0
    buffer_bdp: float = 1.0
    buffer_bytes: Optional[int] = None
    queue_discipline: str = "droptail"

    def validate(self) -> None:
        if not self.name:
            raise TopoSpecError("every link needs a non-empty name")
        if self.bandwidth_mbps <= 0:
            raise TopoSpecError(f"link {self.name!r}: bandwidth must be positive")
        if self.delay_ms < 0:
            raise TopoSpecError(f"link {self.name!r}: delay must be non-negative")
        if self.buffer_bdp <= 0 and self.buffer_bytes is None:
            raise TopoSpecError(f"link {self.name!r}: buffer must be positive")
        if self.queue_discipline not in DISCIPLINES:
            raise TopoSpecError(
                f"link {self.name!r}: unknown queue discipline "
                f"{self.queue_discipline!r} (known: {', '.join(disciplines())})"
            )

    def link_config(self) -> LinkConfig:
        """This link as the existing single-bottleneck ``LinkConfig``.

        ``rtt_s`` is twice the one-way delay, which makes a one-link
        topology's queue capacity (``buffer_bdp`` x BDP) and path delays
        bit-identical to the dumbbell :class:`~repro.netsim.network.Network`.
        """
        return LinkConfig(
            bandwidth_bps=self.bandwidth_mbps * 1e6,
            rtt_s=2 * self.delay_ms / 1e3,
            buffer_bdp=self.buffer_bdp if self.buffer_bdp > 0 else 1.0,
            buffer_bytes=self.buffer_bytes,
            queue_discipline=self.queue_discipline,
        )

    def canonical(self) -> dict:
        return {
            "name": self.name,
            "bandwidth_mbps": float(self.bandwidth_mbps),
            "delay_ms": float(self.delay_ms),
            "buffer_bdp": float(self.buffer_bdp),
            "buffer_bytes": self.buffer_bytes,
            "queue_discipline": self.queue_discipline,
        }


@dataclass(frozen=True)
class FlowEntry:
    """One flow: implementation, direction, lifetime and route."""

    label: str
    stack: str = registry.REFERENCE_STACK
    cca: str = "cubic"
    variant: str = "default"
    direction: str = "forward"
    start_s: float = 0.0
    #: Stop the sender at this simulated time (None = run to the end).
    end_s: Optional[float] = None
    #: Link names the flow traverses, in forward orientation; empty means
    #: every link of the topology in declaration order.
    route: Tuple[str, ...] = ()
    #: Extra one-way delay on top of the route's propagation (RTT
    #: heterogeneity, the CoCo-Beholder axis).
    extra_delay_ms: float = 0.0

    def validate(self, link_names: Sequence[str]) -> None:
        if not self.label:
            raise TopoSpecError("every flow needs a non-empty label")
        if self.direction not in DIRECTIONS:
            raise TopoSpecError(
                f"flow {self.label!r}: direction must be one of "
                f"{', '.join(DIRECTIONS)}; got {self.direction!r}"
            )
        if self.start_s < 0:
            raise TopoSpecError(f"flow {self.label!r}: start_s must be >= 0")
        if self.end_s is not None and self.end_s <= self.start_s:
            raise TopoSpecError(
                f"flow {self.label!r}: end_s must be after start_s"
            )
        if self.extra_delay_ms < 0:
            raise TopoSpecError(
                f"flow {self.label!r}: extra_delay_ms must be >= 0"
            )
        try:
            profile = registry.get_stack(self.stack)
        except KeyError:
            raise TopoSpecError(
                f"flow {self.label!r}: unknown stack {self.stack!r} "
                f"(known: {', '.join(sorted(registry.STACKS))})"
            ) from None
        if not profile.supports(self.cca):
            raise TopoSpecError(
                f"flow {self.label!r}: stack {self.stack!r} does not "
                f"implement {self.cca!r} (available: {profile.available_ccas()})"
            )
        try:
            profile.variant(self.cca, self.variant)
        except KeyError as exc:
            raise TopoSpecError(f"flow {self.label!r}: {exc}") from None
        seen = set()
        ordered = {name: i for i, name in enumerate(link_names)}
        previous = -1
        for hop in self.route:
            if hop not in ordered:
                raise TopoSpecError(
                    f"flow {self.label!r}: unroutable — route names "
                    f"unknown link {hop!r} (links: {', '.join(link_names)})"
                )
            if hop in seen:
                raise TopoSpecError(
                    f"flow {self.label!r}: cyclic route — link {hop!r} "
                    "appears twice"
                )
            seen.add(hop)
            if ordered[hop] <= previous:
                raise TopoSpecError(
                    f"flow {self.label!r}: cyclic route — {hop!r} runs "
                    "against the chain's declaration order"
                )
            previous = ordered[hop]

    def resolved_route(self, link_names: Sequence[str]) -> Tuple[str, ...]:
        """The route in forward orientation, defaulted to the full chain."""
        return self.route if self.route else tuple(link_names)

    def canonical(self) -> dict:
        return {
            "label": self.label,
            "stack": self.stack,
            "cca": self.cca,
            "variant": self.variant,
            "direction": self.direction,
            "start_s": float(self.start_s),
            "end_s": None if self.end_s is None else float(self.end_s),
            "route": list(self.route),
            "extra_delay_ms": float(self.extra_delay_ms),
        }


@dataclass(frozen=True)
class TopologySpec:
    """A validated topology: named links in a chain plus its flows."""

    name: str
    links: Tuple[LinkEntry, ...]
    flows: Tuple[FlowEntry, ...]
    #: Phase-breaking start spread (seconds), the dumbbell harness default.
    start_spread_s: float = 0.0

    def validate(self) -> None:
        if not self.name:
            raise TopoSpecError("topology needs a non-empty name")
        if not self.links:
            raise TopoSpecError(f"topology {self.name!r}: at least one link")
        if not self.flows:
            raise TopoSpecError(f"topology {self.name!r}: at least one flow")
        if self.start_spread_s < 0:
            raise TopoSpecError(
                f"topology {self.name!r}: start_spread_s must be >= 0"
            )
        names = [link.name for link in self.links]
        if len(set(names)) != len(names):
            raise TopoSpecError(
                f"topology {self.name!r}: duplicate link names"
            )
        labels = [flow.label for flow in self.flows]
        if len(set(labels)) != len(labels):
            raise TopoSpecError(
                f"topology {self.name!r}: duplicate flow labels"
            )
        for link in self.links:
            link.validate()
        for flow in self.flows:
            flow.validate(names)
            # The start is jittered by up to start_spread_s; a stop that
            # can fire before it leaves the flow silent.
            if flow.end_s is not None and flow.end_s <= flow.start_s + self.start_spread_s:
                raise TopoSpecError(
                    f"flow {flow.label!r}: end_s must be after start_s + "
                    f"start_spread_s ({flow.start_s} + {self.start_spread_s})"
                )

    # ------------------------------------------------------------ identity

    def link_names(self) -> List[str]:
        return [link.name for link in self.links]

    def canonical(self) -> dict:
        """The fully-defaulted spec as a plain JSON-serialisable dict."""
        return {
            "name": self.name,
            "links": [link.canonical() for link in self.links],
            "flows": [flow.canonical() for flow in self.flows],
            "start_spread_s": float(self.start_spread_s),
        }

    def fingerprint(self) -> str:
        """Stable content hash of the canonical spec (key-order immune)."""
        payload = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def describe(self) -> str:
        return (
            f"{self.name}: {len(self.links)} link(s), "
            f"{len(self.flows)} flow(s)"
        )


_LINK_FIELDS = {
    "name", "bandwidth_mbps", "delay_ms", "buffer_bdp", "buffer_bytes",
    "queue_discipline",
}
_FLOW_FIELDS = {
    "label", "stack", "cca", "variant", "direction", "start_s", "end_s",
    "route", "extra_delay_ms",
}
_TOPO_FIELDS = {"name", "links", "flows", "start_spread_s"}


def _reject_unknown(raw: Mapping, allowed: set, what: str) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise TopoSpecError(
            f"{what} has unknown field(s): {', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _float(raw: Mapping, field_name: str, default, what: str):
    value = raw.get(field_name, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TopoSpecError(f"{what}.{field_name} must be a number")
    return float(value)


def _parse_link(raw: Mapping, index: int) -> LinkEntry:
    what = f"links[{index}]"
    if not isinstance(raw, Mapping):
        raise TopoSpecError(f"{what} must be an object")
    _reject_unknown(raw, _LINK_FIELDS, what)
    buffer_bytes = raw.get("buffer_bytes")
    if buffer_bytes is not None:
        if isinstance(buffer_bytes, bool) or not isinstance(buffer_bytes, int):
            raise TopoSpecError(f"{what}.buffer_bytes must be an integer")
    return LinkEntry(
        name=str(raw.get("name", "") or ""),
        bandwidth_mbps=_float(raw, "bandwidth_mbps", 20.0, what),
        delay_ms=_float(raw, "delay_ms", 25.0, what),
        buffer_bdp=_float(raw, "buffer_bdp", 1.0, what),
        buffer_bytes=buffer_bytes,
        queue_discipline=str(raw.get("queue_discipline", "droptail")),
    )


def _parse_flow(raw: Mapping, index: int) -> FlowEntry:
    what = f"flows[{index}]"
    if not isinstance(raw, Mapping):
        raise TopoSpecError(f"{what} must be an object")
    _reject_unknown(raw, _FLOW_FIELDS, what)
    route = raw.get("route", [])
    if isinstance(route, str) or not isinstance(route, Sequence):
        raise TopoSpecError(f"{what}.route must be a list of link names")
    if not all(isinstance(hop, str) for hop in route):
        raise TopoSpecError(f"{what}.route must be a list of link names")
    return FlowEntry(
        label=str(raw.get("label", "") or ""),
        stack=str(raw.get("stack", registry.REFERENCE_STACK)),
        cca=str(raw.get("cca", "cubic")),
        variant=str(raw.get("variant", "default")),
        direction=str(raw.get("direction", "forward")),
        start_s=_float(raw, "start_s", 0.0, what),
        end_s=_float(raw, "end_s", None, what),
        route=tuple(route),
        extra_delay_ms=_float(raw, "extra_delay_ms", 0.0, what),
    )


def parse_topology_spec(payload: Mapping) -> TopologySpec:
    """Validate a JSON/dict document into a :class:`TopologySpec`.

    Strict by design: unknown fields, unroutable or cyclic routes,
    unknown stacks/CCAs/disciplines, and unphysical parameters all raise
    :class:`TopoSpecError` here, before anything simulates.
    """
    if not isinstance(payload, Mapping):
        raise TopoSpecError("topology spec must be a JSON object")
    _reject_unknown(payload, _TOPO_FIELDS, "topology spec")
    raw_links = payload.get("links", [])
    raw_flows = payload.get("flows", [])
    for field_name, raw in (("links", raw_links), ("flows", raw_flows)):
        if isinstance(raw, (str, bytes)) or not isinstance(raw, Sequence):
            raise TopoSpecError(f"spec.{field_name} must be a list of objects")
    spec = TopologySpec(
        name=str(payload.get("name", "") or ""),
        links=tuple(_parse_link(raw, i) for i, raw in enumerate(raw_links)),
        flows=tuple(_parse_flow(raw, i) for i, raw in enumerate(raw_flows)),
        start_spread_s=_float(payload, "start_spread_s", 0.0, "spec"),
    )
    spec.validate()
    return spec


def load_topology_spec(path: str) -> TopologySpec:
    """Parse a topology spec from a JSON file."""
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except ValueError as exc:
            raise TopoSpecError(f"{path} is not valid JSON: {exc}") from None
    return parse_topology_spec(payload)


# ------------------------------------------------------- builtin shapes


def _default_stacks(cca: str, preferred: Sequence[str]) -> Sequence[str]:
    """Drop preferred stacks that lack ``cca``; fall back to any that has it.

    Keeps ``dumbbell("bbr")`` working even though e.g. quiche only ships
    cubic/reno — the shapes are about topology, not stack coverage.
    """
    supported = [s for s in preferred if registry.get_stack(s).supports(cca)]
    if len(supported) >= len(preferred):
        return supported
    pad = [
        name for name in sorted(registry.STACKS)
        if name not in supported and registry.get_stack(name).supports(cca)
    ]
    return (supported + pad)[: len(preferred)] or list(preferred)


def dumbbell(cca: str = "cubic", stacks: Sequence[str] = ("linux", "quiche")) -> TopologySpec:
    """The paper's shape: all flows share one bottleneck (degenerate)."""
    stacks = _default_stacks(cca, stacks)
    return parse_topology_spec({
        "name": f"dumbbell-{cca}",
        "links": [
            {"name": "bottleneck", "bandwidth_mbps": 16, "delay_ms": 10},
        ],
        "flows": [
            {"label": f"{stack}-{cca}", "stack": stack, "cca": cca}
            for stack in stacks
        ],
        "start_spread_s": 0.5,
    })


def chain(cca: str = "cubic", stacks: Sequence[str] = ("linux", "quiche")) -> TopologySpec:
    """Two bottlenecks in series; the second is the tighter one."""
    stacks = _default_stacks(cca, stacks)
    return parse_topology_spec({
        "name": f"chain-{cca}",
        "links": [
            {"name": "access", "bandwidth_mbps": 24, "delay_ms": 5},
            {"name": "core", "bandwidth_mbps": 12, "delay_ms": 15},
        ],
        "flows": [
            {"label": f"{stack}-{cca}", "stack": stack, "cca": cca}
            for stack in stacks
        ],
        "start_spread_s": 0.5,
    })


def parking_lot(cca: str = "cubic", stacks: Sequence[str] = ("linux", "quiche")) -> TopologySpec:
    """The classic parking lot: one long flow vs per-hop cross flows.

    The long flow crosses every hop and competes with a one-hop flow on
    each, so its share compounds hop by hop — the scenario where RTT
    bias and multi-bottleneck behaviour separate CCAs that look alike on
    a dumbbell.
    """
    stacks = _default_stacks(cca, stacks)
    long_stack = stacks[0]
    cross_stacks = list(stacks[1:]) or [stacks[0]]
    links = [
        {"name": f"hop{i}", "bandwidth_mbps": 16, "delay_ms": 8}
        for i in range(1, 3 + 1)
    ]
    flows = [
        {"label": f"long-{long_stack}-{cca}", "stack": long_stack, "cca": cca},
    ]
    for i in range(1, 3 + 1):
        stack = cross_stacks[(i - 1) % len(cross_stacks)]
        flows.append({
            "label": f"cross{i}-{stack}-{cca}",
            "stack": stack,
            "cca": cca,
            "route": [f"hop{i}"],
        })
    return parse_topology_spec({
        "name": f"parking-lot-{cca}",
        "links": links,
        "flows": flows,
        "start_spread_s": 0.5,
    })


#: Named shape builders for the CLI matrix and the smoke campaign.
SHAPES = {
    "dumbbell": dumbbell,
    "chain": chain,
    "parking-lot": parking_lot,
}


__all__ = [
    "DIRECTIONS",
    "SHAPES",
    "FlowEntry",
    "LinkEntry",
    "TopoSpecError",
    "TopologySpec",
    "chain",
    "dumbbell",
    "load_topology_spec",
    "parking_lot",
    "parse_topology_spec",
]
