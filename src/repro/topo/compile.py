"""The topology compiler: a TopologySpec translated into a ``Network``.

:class:`TopoNetwork` is a :class:`~repro.netsim.network.Network` whose
links and flows come from a validated :class:`TopologySpec`: each named
link becomes a :class:`~repro.netsim.network.LinkConfig`, each flow
entry a :class:`~repro.netsim.network.FlowSpec` built by its stack's
registry profile, with the route given as link indices.  The wiring, the
RNG draw order and the run loop are the ``Network``'s; a one-link spec
is therefore the dumbbell, bit for bit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.netsim.network import Network, RoutedLink
from repro.stacks import registry
from repro.topo.spec import TopologySpec


class TopoNetwork(Network):
    """A wired-up topology experiment, ready to run."""

    def __init__(self, spec: TopologySpec, seed: int = 0, base_jitter_s: float = 0.0):
        spec.validate()
        self.spec = spec
        names = spec.link_names()
        index = {name: i for i, name in enumerate(names)}
        flows = []
        for entry in spec.flows:
            route = [index[name] for name in entry.resolved_route(names)]
            travel = route[::-1] if entry.direction == "reverse" else route
            profile = registry.get_stack(entry.stack)
            flows.append(replace(
                profile.flow_spec(entry.cca, entry.variant, label=entry.label,
                                  start_time=entry.start_s),
                extra_delay_s=entry.extra_delay_ms / 1e3,
                route=tuple(route),
                direction=entry.direction,
                end_time=entry.end_s,
                # Milliseconds summed in travel order, then scaled once:
                # a sum of per-hop seconds rounds differently.
                return_delay_s=sum(spec.links[i].delay_ms for i in travel) / 1e3,
            ))
        super().__init__(
            [link.link_config() for link in spec.links],
            flows,
            seed=seed,
            base_jitter_s=base_jitter_s,
            start_spread_s=spec.start_spread_s,
        )
        #: The forward direction of every link, by name.
        self.forward_links: Dict[str, RoutedLink] = dict(zip(names, self.links))

    def link_instances(self) -> Dict[str, RoutedLink]:
        """Forward directions plus any reverse ones in use (``name:reverse``)."""
        out = dict(self.forward_links)
        for i, link in self.reverse_links.items():
            out[f"{self.spec.links[i].name}:reverse"] = link
        return out


__all__ = ["TopoNetwork"]
