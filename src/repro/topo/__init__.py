"""repro.topo: declarative topologies and flow specs, first-class.

The subsystem has four layers:

- :mod:`repro.topo.spec` — the declarative :class:`TopologySpec`
  (named queued links + routed flows), strictly parsed and canonically
  fingerprinted like every other spec in the repo;
- :mod:`repro.topo.compile` — the translator from a spec to
  :class:`TopoNetwork`, a :class:`repro.netsim.network.Network` whose
  links, routes and flows come from the spec (the simulator itself has
  one wiring and one run loop; a one-link spec is the dumbbell);
- :mod:`repro.topo.metrics` — fairness/convergence metrics over the
  windowed per-flow throughput matrix (the trial payload);
- :mod:`repro.topo.campaign` — the ``"topology"`` campaign kind:
  content-addressed trial jobs, store recording, service dispatch.
"""

from repro.topo.compile import TopoNetwork
from repro.topo.metrics import (
    convergence_time,
    flow_shares,
    jain_index,
    throughput_matrix,
    utilization,
)
from repro.topo.spec import (
    SHAPES,
    FlowEntry,
    LinkEntry,
    TopologySpec,
    TopoSpecError,
    chain,
    dumbbell,
    load_topology_spec,
    parking_lot,
    parse_topology_spec,
)

__all__ = [
    "SHAPES",
    "FlowEntry",
    "LinkEntry",
    "TopoNetwork",
    "TopoSpecError",
    "TopologySpec",
    "chain",
    "convergence_time",
    "dumbbell",
    "flow_shares",
    "jain_index",
    "load_topology_spec",
    "parking_lot",
    "parse_topology_spec",
    "throughput_matrix",
    "utilization",
]
