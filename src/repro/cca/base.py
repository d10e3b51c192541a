"""The congestion-controller interface.

A controller owns the congestion window (bytes) and optionally a pacing
rate (bytes/s).  The hosting sender translates transport events (ACKs,
loss detection, RTO, spurious-loss discovery) into the calls below and
enforces cwnd/pacing when transmitting.

Congestion events are de-duplicated by the sender: multiple losses within
one round trip produce a single :meth:`on_congestion_event`, matching both
kernel TCP fast-recovery semantics and QUIC recovery periods
(RFC 9002 §7.3.2).
"""

from __future__ import annotations

import abc
from typing import Optional


class AckEvent:
    """Everything a controller may want to know about an ACK.

    Built once per ACK, so a ``__slots__`` class rather than a frozen
    dataclass (about a third of the construction cost).  Controllers
    treat it as read-only.
    """

    __slots__ = (
        "now",
        "bytes_acked",
        "rtt_sample",
        "delivery_rate",
        "is_app_limited",
        "bytes_in_flight",
        "round_count",
    )

    def __init__(
        self,
        now: float,
        bytes_acked: int,
        rtt_sample: Optional[float],
        delivery_rate: Optional[float],
        is_app_limited: bool,
        bytes_in_flight: int,
        round_count: int,
    ):
        #: Simulated time the ACK was processed at the sender.
        self.now = now
        #: Payload bytes newly acknowledged by this ACK.
        self.bytes_acked = bytes_acked
        #: RTT sample from the largest newly acked packet, seconds (None
        #: when the ACK only covered retransmissions).
        self.rtt_sample = rtt_sample
        #: Delivery-rate sample, bytes per second (None until measurable).
        self.delivery_rate = delivery_rate
        #: True when the rate sample was taken while the flow was
        #: application limited (bulk flows here are rarely app-limited,
        #: but short pacing gaps can produce such samples).
        self.is_app_limited = is_app_limited
        #: Bytes still in flight *after* this ACK was applied.
        self.bytes_in_flight = bytes_in_flight
        #: Round-trip counter maintained by the sender (increments when a
        #: full flight is acknowledged).
        self.round_count = round_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__)
        return f"AckEvent({fields})"


class CongestionController(abc.ABC):
    """Abstract congestion controller hosted by a sender."""

    #: Human-readable algorithm name ("cubic", "bbr", "reno").
    name: str = "abstract"

    def __init__(self, mss: int):
        if mss <= 0:
            raise ValueError("mss must be positive")
        self.mss = mss

    # -- state the sender enforces --------------------------------------
    @property
    @abc.abstractmethod
    def cwnd(self) -> int:
        """Congestion window in bytes."""

    def pacing_rate(self) -> Optional[float]:
        """Pacing rate in bytes/s, or None for window-limited sending.

        Kernel Reno/CUBIC do not pace (absent sch_fq); BBR always paces.
        """
        return None

    @property
    def in_slow_start(self) -> bool:
        return False

    # -- event hooks ------------------------------------------------------
    @abc.abstractmethod
    def on_ack(self, event: AckEvent) -> None:
        """Process an acknowledgment."""

    @abc.abstractmethod
    def on_congestion_event(self, now: float, bytes_in_flight: int) -> None:
        """One congestion notification per recovery period."""

    def on_recovery_exit(self, now: float) -> None:
        """All data outstanding at the congestion event has been handled.

        Kernel TCP calls this when loss recovery completes; Linux BBR uses
        it to restore the congestion window saved at recovery entry
        (``bbr_prior_cwnd``).  Window-based CCAs ignore it.
        """

    def on_spurious_congestion(self, now: float) -> None:
        """The last congestion event was found to be spurious.

        Default: ignore, like the Linux kernel for CUBIC (the paper notes
        RFC8312bis undo is *not* in the kernel).  quiche CUBIC overrides
        this to roll back the multiplicative decrease (§5, Fig. 15).
        """

    def on_rto(self, now: float) -> None:
        """Retransmission timeout: collapse to a minimal window."""

    def on_packet_sent(self, now: float, bytes_in_flight: int, size: int) -> None:
        """Observe a transmission (needed by BBR for app-limited marking)."""

    # -- diagnostics -------------------------------------------------------
    def debug_state(self) -> dict:
        """Free-form state snapshot used by tests and the CLI."""
        return {"name": self.name, "cwnd": self.cwnd}


#: Loss-recovery floor common to all controllers (RFC 5681 / RFC 9002).
MIN_CWND_PACKETS = 2


def min_cwnd(mss: int) -> int:
    """Loss-recovery cwnd floor in bytes for a given MSS."""
    return MIN_CWND_PACKETS * mss
