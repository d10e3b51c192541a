"""Discrete-event, packet-level network simulator.

This package is the testbed substrate for the reproduction: it plays the
role of the two-machine Ethernet testbed shaped with ``tc`` and Mahimahi in
the paper.  It provides

* an event engine (:mod:`repro.netsim.engine`),
* a constant-rate bottleneck link with a drop-tail buffer
  (:mod:`repro.netsim.link`),
* propagation paths with netem-style impairments
  (:mod:`repro.netsim.path`),
* reliable bulk-transfer endpoints that host a congestion controller
  (:mod:`repro.netsim.endpoint`),
* cross-traffic sources (:mod:`repro.netsim.crosstraffic`),
* the experiment network, which routes flows over a chain of queued
  links with the dumbbell as its one-link case
  (:mod:`repro.netsim.network`), and
* packet-trace capture for offline analysis (:mod:`repro.netsim.trace`).
"""

from repro.netsim.engine import EventLoop
from repro.netsim.packet import Packet, AckInfo
from repro.netsim.link import BottleneckLink, DropTailQueue
from repro.netsim.path import Path, NetemConfig
from repro.netsim.trace import FlowTrace, TraceRecord
from repro.netsim.endpoint import (
    Sender,
    Receiver,
    SenderConfig,
    ReceiverConfig,
    SpuriousUndoConfig,
)
from repro.netsim.network import (
    Network,
    FlowSpec,
    FlowResult,
    LinkConfig,
)
from repro.netsim.crosstraffic import OnOffSource, CrossTrafficConfig
from repro.netsim.qlog import trace_to_qlog, write_qlog, load_qlog
from repro.netsim.pcap import write_pcap, read_pcap_summary

__all__ = [
    "EventLoop",
    "Packet",
    "AckInfo",
    "BottleneckLink",
    "DropTailQueue",
    "Path",
    "NetemConfig",
    "FlowTrace",
    "TraceRecord",
    "Sender",
    "Receiver",
    "SenderConfig",
    "ReceiverConfig",
    "SpuriousUndoConfig",
    "Network",
    "FlowSpec",
    "FlowResult",
    "LinkConfig",
    "OnOffSource",
    "CrossTrafficConfig",
    "trace_to_qlog",
    "write_qlog",
    "load_qlog",
    "write_pcap",
    "read_pcap_summary",
]
