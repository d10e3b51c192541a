"""Packet-trace capture.

The paper computes throughput and delay *offline from packet traces*
(tcpdump on the endpoints) rather than from in-band counters, and so do we:
every flow gets a :class:`FlowTrace` that records one :class:`TraceRecord`
per delivered data packet plus loss/retransmission events, and the analysis
in :mod:`repro.core.timeseries` consumes only this trace.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Iterable, List


class TraceRecord:
    """One delivered data packet, as seen by the receiver.

    ``one_way_delay`` covers queueing + propagation from sender to
    receiver; the analysis reconstructs an RTT estimate by adding the
    (known, constant) reverse-path base delay, which is what a
    sender-side tcpdump RTT computation would measure up to ACK decimation
    noise.

    A ``__slots__`` class rather than a dataclass: one is built per
    delivered packet, and a frozen dataclass costs about three times as
    much to construct.  Records compare by value.
    """

    __slots__ = (
        "arrival_time",
        "sent_time",
        "seq",
        "payload_bytes",
        "one_way_delay",
        "is_retransmission",
    )

    def __init__(
        self,
        arrival_time: float,
        sent_time: float,
        seq: int,
        payload_bytes: int,
        one_way_delay: float,
        is_retransmission: bool,
    ):
        self.arrival_time = arrival_time
        self.sent_time = sent_time
        self.seq = seq
        self.payload_bytes = payload_bytes
        self.one_way_delay = one_way_delay
        self.is_retransmission = is_retransmission

    def as_tuple(self) -> tuple:
        return (
            self.arrival_time,
            self.sent_time,
            self.seq,
            self.payload_bytes,
            self.one_way_delay,
            self.is_retransmission,
        )

    def as_dict(self) -> dict:
        return dict(zip(self.__slots__, self.as_tuple()))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_tuple() == other.as_tuple()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"TraceRecord({fields})"


@dataclass(frozen=True)
class LossRecord:
    """A packet drop observed at the bottleneck for this flow."""

    time: float
    seq: int


class FlowTrace:
    """Accumulates per-flow records during a simulation run."""

    def __init__(self, flow_id: int, label: str = ""):
        self.flow_id = flow_id
        self.label = label
        self.records: List[TraceRecord] = []
        self.losses: List[LossRecord] = []
        #: Sender-side congestion-window samples ``(time, cwnd_bytes)``,
        #: used by the fix-verification time-series plots (paper Fig. 15).
        self.cwnd_samples: List[tuple] = []
        #: Sender-side pacing-rate samples ``(time, bytes_per_s)``.
        self.rate_samples: List[tuple] = []

    # -- recording -----------------------------------------------------
    def on_delivery(
        self,
        arrival_time: float,
        sent_time: float,
        seq: int,
        payload_bytes: int,
        is_retransmission: bool,
    ) -> None:
        self.records.append(
            TraceRecord(
                arrival_time,
                sent_time,
                seq,
                payload_bytes,
                arrival_time - sent_time,
                is_retransmission,
            )
        )

    def on_loss(self, time: float, seq: int) -> None:
        self.losses.append(LossRecord(time=time, seq=seq))

    def on_cwnd(self, time: float, cwnd_bytes: int) -> None:
        self.cwnd_samples.append((time, cwnd_bytes))

    def on_rate(self, time: float, rate_bytes_per_s: float) -> None:
        self.rate_samples.append((time, rate_bytes_per_s))

    # -- summaries -----------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return sum(r.payload_bytes for r in self.records)

    @property
    def duration(self) -> float:
        if not self.records:
            return 0.0
        return self.records[-1].arrival_time - self.records[0].arrival_time

    def mean_throughput_bps(self) -> float:
        """Average delivered rate over the trace, bits per second."""
        duration = self.duration
        if duration <= 0:
            return 0.0
        return self.total_bytes * 8 / duration

    def mean_one_way_delay(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.one_way_delay for r in self.records) / len(self.records)

    # -- export ----------------------------------------------------------
    def to_csv(self, path: str) -> None:
        """Write the delivery records as CSV (tcpdump-post-processing style)."""
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(
                ["arrival_time", "sent_time", "seq", "payload_bytes",
                 "one_way_delay", "is_retransmission"]
            )
            for r in self.records:
                writer.writerow(
                    [r.arrival_time, r.sent_time, r.seq, r.payload_bytes,
                     r.one_way_delay, int(r.is_retransmission)]
                )

    def to_json(self, path: str) -> None:
        """Write the full trace, including loss and cwnd series, as JSON."""
        payload = {
            "flow_id": self.flow_id,
            "label": self.label,
            "records": [r.as_dict() for r in self.records],
            "losses": [{"time": l.time, "seq": l.seq} for l in self.losses],
            "cwnd_samples": self.cwnd_samples,
            "rate_samples": self.rate_samples,
        }
        with open(path, "w") as f:
            json.dump(payload, f)

    @classmethod
    def from_json(cls, path: str) -> "FlowTrace":
        with open(path) as f:
            payload = json.load(f)
        trace = cls(payload["flow_id"], payload.get("label", ""))
        trace.records = [TraceRecord(**r) for r in payload["records"]]
        trace.losses = [LossRecord(**l) for l in payload["losses"]]
        trace.cwnd_samples = [tuple(s) for s in payload["cwnd_samples"]]
        trace.rate_samples = [tuple(s) for s in payload["rate_samples"]]
        return trace


def merge_traces(traces: Iterable[FlowTrace]) -> List[TraceRecord]:
    """All records of several traces in arrival order (bottleneck view)."""
    merged: List[TraceRecord] = []
    for trace in traces:
        merged.extend(trace.records)
    merged.sort(key=lambda r: r.arrival_time)
    return merged
