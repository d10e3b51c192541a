"""Packet and ACK models.

Packets are deliberately lightweight (``__slots__``) because a single
120-second trial at 20 Mbps moves several hundred thousand of them.

A single :class:`Packet` type models both data packets and ACKs; ACKs carry
an :class:`AckInfo` payload.  The ACK model is a superset of TCP cumulative
ACKs and QUIC ACK frames: it carries the cumulative ack point (next expected
packet number, TCP semantics), the largest packet number seen so far and the
list of packet numbers newly delivered since the previous ACK (QUIC / SACK
semantics).  Loss detectors consume whichever view matches the stack they
emulate.
"""

from __future__ import annotations

from typing import List, Optional


class AckInfo:
    """Acknowledgment payload carried by an ACK packet."""

    __slots__ = (
        "cum_ack",
        "largest_acked",
        "newly_acked",
        "largest_sent_time",
        "ack_delay",
        "delivered_bytes",
    )

    def __init__(
        self,
        cum_ack: int,
        largest_acked: int,
        newly_acked: List[int],
        largest_sent_time: float,
        ack_delay: float,
        delivered_bytes: int,
    ):
        #: Next packet number expected in order (TCP cumulative semantics).
        self.cum_ack = cum_ack
        #: Largest packet number received so far (QUIC semantics).
        self.largest_acked = largest_acked
        #: Packet numbers delivered since the previous ACK was emitted.
        self.newly_acked = newly_acked
        #: Send timestamp of the largest newly acked packet (for RTT).
        self.largest_sent_time = largest_sent_time
        #: Delay the receiver held this ACK for (QUIC ack_delay field).
        self.ack_delay = ack_delay
        #: Total payload bytes delivered in order at the receiver.
        self.delivered_bytes = delivered_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AckInfo(cum={self.cum_ack}, largest={self.largest_acked}, "
            f"new={self.newly_acked})"
        )


class Packet:
    """A simulated packet.

    ``seq`` is a packet number (monotonically increasing per flow for data
    packets, QUIC style); retransmissions reuse the *stream* identity via
    ``retx_of`` while getting a fresh packet number, which is how QUIC
    numbers retransmissions.  ``size`` includes headers.
    """

    __slots__ = (
        "flow_id",
        "seq",
        "size",
        "sent_time",
        "is_ack",
        "ack",
        "retx_of",
        "enqueue_time",
        "delivered_at_send",
        "delivered_time_at_send",
        "acked",
        "lost",
    )

    def __init__(
        self,
        flow_id: int,
        seq: int,
        size: int,
        sent_time: float,
        is_ack: bool = False,
        ack: Optional[AckInfo] = None,
        retx_of: Optional[int] = None,
    ):
        self.flow_id = flow_id
        self.seq = seq
        self.size = size
        self.sent_time = sent_time
        self.is_ack = is_ack
        self.ack = ack
        self.retx_of = retx_of
        #: Set by the queue when the packet is accepted, used to compute
        #: per-packet queueing delay in traces.
        self.enqueue_time = sent_time
        #: Delivery-rate sampling state (Bruenn/Cheng "delivery rate
        #: estimation"), filled by the sender for data packets.
        self.delivered_at_send = 0
        self.delivered_time_at_send = sent_time
        #: Sender-side fate of a data packet; the sender keeps the packet
        #: it sent as its record and never reads these off the wire.
        self.acked = False
        self.lost = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ack" if self.is_ack else "data"
        return f"Packet(flow={self.flow_id}, seq={self.seq}, {kind})"


#: Conventional wire sizes, bytes.  The Ethernet MTU bounds both; QUIC
#: datagrams are smaller than TCP segments because of the UDP+QUIC header
#: overhead and conservative defaults in most stacks.
TCP_MSS = 1448
QUIC_DEFAULT_MSS = 1350
HEADER_BYTES = 52
ACK_SIZE = 60
