"""Transport endpoints: a reliable bulk sender and its receiver.

The sender hosts a :class:`~repro.cca.base.CongestionController` and
implements everything a CCA needs from its surrounding stack:

* reliable delivery with retransmissions,
* loss detection in either kernel-TCP style (SACK + 3-dup threshold + RTO)
  or QUIC style (RFC 9002: packet threshold 3, time threshold
  9/8 * max(srtt, latest_rtt), probe timeout),
* RTT estimation and delivery-rate sampling (for BBR),
* pacing with optional send-timer quantization (the "stack-level artifact"
  knob used to model xquic/neqo, §5 of the paper),
* Eifel-style spurious-loss detection (original copy of a declared-lost
  packet is later acknowledged) plus quiche's isolated-episode undo
  heuristic, both feeding
  :meth:`~repro.cca.base.CongestionController.on_spurious_congestion`.

The receiver implements the ACK policy (ACK frequency and delayed-ACK
timer) and echoes per-packet send timestamps so the sender can detect
spurious loss declarations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional

from repro.cca.base import AckEvent, CongestionController
from repro.cca.rtt import RttEstimator
from repro.netsim.engine import Event, EventLoop, Timer
from repro.netsim.packet import ACK_SIZE, AckInfo, Packet
from repro.netsim.trace import FlowTrace

#: RFC 9002 / SACK reordering threshold, packets.
PACKET_THRESHOLD = 3


@dataclass
class SpuriousUndoConfig:
    """quiche-style congestion-event undo (RFC8312bis §4.9 as deployed).

    quiche rolls back a multiplicative decrease when the triggering loss is
    classified as spurious.  Besides the textbook signal (the "lost"
    packet's original copy is acknowledged later — Eifel detection), the
    deployed behaviour effectively undoes back-offs for isolated loss
    episodes; we model that as: if at most ``max_episode_losses`` packets
    were declared lost within ``window_rtts`` round trips of the
    congestion event, the event is deemed spurious.
    """

    window_rtts: float = 1.0
    max_episode_losses: int = 3


@dataclass
class SenderConfig:
    """Stack-level sender behaviour (one per QUIC stack / kernel TCP)."""

    mss: int = 1448
    #: "tcp" = SACK + dup threshold + RTO; "quic" = RFC 9002.
    loss_style: str = "quic"
    initial_rtt: float = 0.1
    #: Event-loop send-timer granularity in seconds; 0 = ideal timers.
    #: Non-zero values quantize every transmission opportunity, modelling
    #: coarse userspace timers (xquic, neqo stack artifacts).
    send_timer_granularity: float = 0.0
    #: Always-on pacing even for window-based CCAs (some QUIC stacks pace
    #: CUBIC/Reno at 2x the estimated bandwidth; kernel TCP does not).
    pace_window_ccas: bool = False
    #: Scale factor on the cwnd enforced by the stack (1.0 = faithful).
    cwnd_scale: float = 1.0
    #: Spurious-undo heuristic; None disables it (everyone but quiche).
    spurious_undo: Optional[SpuriousUndoConfig] = None
    #: Minimum interval between cwnd trace samples, seconds.
    cwnd_sample_interval: float = 0.01
    #: Total payload to transfer; None = unlimited bulk flow.  Finite
    #: flows stop sending fresh data once this much has been handed to
    #: the transport and report a completion time when it is all acked.
    total_bytes: Optional[int] = None

    def validate(self) -> None:
        if self.mss <= 0:
            raise ValueError("mss must be positive")
        if self.loss_style not in ("tcp", "quic"):
            raise ValueError(f"unknown loss style {self.loss_style!r}")
        if self.send_timer_granularity < 0:
            raise ValueError("timer granularity must be non-negative")
        if self.cwnd_scale <= 0:
            raise ValueError("cwnd scale must be positive")
        if self.total_bytes is not None and self.total_bytes <= 0:
            raise ValueError("total_bytes must be positive when set")


class Sender:
    """Reliable bulk-transfer sender hosting a congestion controller."""

    def __init__(
        self,
        loop: EventLoop,
        flow_id: int,
        cca: CongestionController,
        transmit: Callable[[Packet], None],
        config: Optional[SenderConfig] = None,
        trace: Optional[FlowTrace] = None,
    ):
        config = config or SenderConfig()
        config.validate()
        self._loop = loop
        self.flow_id = flow_id
        self.cca = cca
        self._transmit = transmit
        self.config = config
        self.trace = trace

        self.rtt = RttEstimator(initial_rtt=config.initial_rtt)
        self._next_seq = 0
        #: Every data packet sent, by packet number: the sender's record.
        self._sent: Dict[int, Packet] = {}
        self._lowest_unacked = 0
        self._largest_acked = -1
        self.bytes_in_flight = 0
        self.delivered_bytes = 0
        self._delivered_time = 0.0

        # Round accounting (BBR-style).
        self.round_count = 0
        self._round_end_delivered = 0

        # Recovery / congestion-event de-duplication.
        self._recovery_until_seq = -1
        self._in_recovery = False
        self._congestion_events = 0

        # Retransmission queue: original seqs awaiting retransmission.
        self._retx_queue: Deque[int] = deque()

        # Spurious-loss bookkeeping: seq -> original sent_time.
        self._declared_lost: Dict[int, float] = {}
        self._episode_losses = 0
        self._episode_check: Optional[Timer] = None
        self._undo_pending = False

        # Timers.
        self._rto_timer = Timer(loop, self._on_rto_timeout)
        self._loss_timer = Timer(loop, self._on_loss_timer)
        self._consecutive_timeouts = 0
        #: The RTO delay with back-off; recomputed by _update_rto_delay
        #: whenever the RTT estimate or the timeout count changes.
        self._rto_delay = 0.0
        self._update_rto_delay()
        self._send_wakeup: Optional[Event] = None
        self._next_send_time = 0.0
        self._last_cwnd_sample = -1.0
        self._started = False
        self._stopped = False

        # Counters for tests/diagnostics.
        self.packets_sent = 0
        self.retransmissions = 0
        self.spurious_events = 0

        # Finite-flow bookkeeping.
        self._fresh_bytes_sent = 0
        #: Set once a finite flow has handed all of ``total_bytes`` to the
        #: transport; only retransmissions are sent after that.
        self._all_fresh_sent = False
        self._start_time: Optional[float] = None
        #: Set once all of ``total_bytes`` has been acknowledged.
        self.completion_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._start_time = self._loop.now
        self._try_send()

    @property
    def complete(self) -> bool:
        return self.completion_time is not None

    @property
    def effective_cwnd(self) -> int:
        return int(self.cca.cwnd * self.config.cwnd_scale)

    def _pacing_rate(self) -> Optional[float]:
        rate = self.cca.pacing_rate()
        if rate is not None:
            return rate
        if self.config.pace_window_ccas:
            # Pace window CCAs at 2 * cwnd/srtt like several QUIC stacks.
            return 2 * self.effective_cwnd / self.rtt.smoothed
        return None

    def _quantize(self, t: float) -> float:
        """Round ``t`` up to the send timer's tick; granularity > 0."""
        g = self.config.send_timer_granularity
        ticks = int(t / g)
        quantized = ticks * g
        if quantized < t - 1e-12:
            quantized += g
        return quantized

    def _try_send(self) -> None:
        if self._stopped:
            return
        now = self._loop.now
        config = self.config
        mss = config.mss
        while True:
            if self._all_fresh_sent and not self._retx_queue:
                return  # finite flow: everything handed to the transport.
            if self.bytes_in_flight + mss > self.effective_cwnd:
                return  # cwnd-limited; ACKs will re-trigger us.
            next_send = self._next_send_time
            send_at = now if now > next_send else next_send
            if config.send_timer_granularity > 0:
                send_at = self._quantize(send_at)
            if send_at > now + 1e-12:
                self._schedule_wakeup(send_at)
                return
            self._send_packet(now)
            rate = self._pacing_rate()
            if rate is not None and rate > 0:
                next_send = self._next_send_time
                self._next_send_time = (now if now > next_send else next_send) + mss / rate

    def _schedule_wakeup(self, at: float) -> None:
        if self._send_wakeup is not None:
            return
        self._send_wakeup = self._loop.schedule_at(at, self._wake)

    def _wake(self) -> None:
        self._send_wakeup = None
        self._try_send()

    def _send_packet(self, now: float) -> None:
        retx_of: Optional[int] = None
        queue = self._retx_queue
        while queue:
            candidate = queue.popleft()
            info = self._sent.get(candidate)
            if info is not None and info.lost and not info.acked:
                # A lost retransmission still carries the *original*
                # stream sequence; pointing at the carrier would orphan
                # the stream data if the carrier is lost again.
                retx_of = info.retx_of if info.retx_of is not None else candidate
                break
        config = self.config
        mss = config.mss
        if retx_of is None:
            if self._all_fresh_sent:
                return  # only stale retransmission entries were queued
            self._fresh_bytes_sent += mss
            total = config.total_bytes
            self._all_fresh_sent = total is not None and self._fresh_bytes_sent >= total
        seq = self._next_seq
        self._next_seq = seq + 1
        packet = Packet(self.flow_id, seq, mss, now, retx_of=retx_of)
        packet.delivered_at_send = self.delivered_bytes
        packet.delivered_time_at_send = self._delivered_time or now
        self._sent[seq] = packet
        self.bytes_in_flight += mss
        self.packets_sent += 1
        if retx_of is not None:
            self.retransmissions += 1
        self.cca.on_packet_sent(now, self.bytes_in_flight, mss)
        self._rto_timer.arm(self._rto_delay)  # data is in flight now
        self._sample_cwnd(now)
        self._transmit(packet)

    # ------------------------------------------------------------------
    # ACK processing
    # ------------------------------------------------------------------
    def on_ack(self, packet: Packet) -> None:
        assert packet.is_ack and packet.ack is not None
        ack = packet.ack
        config = self.config
        now = self._loop.now
        newly_acked_bytes = 0
        largest_newly: Optional[Packet] = None

        for seq in ack.newly_acked:
            info = self._sent.get(seq)
            if info is None or info.acked:
                continue
            info.acked = True
            if not info.lost:
                self.bytes_in_flight -= info.size
            newly_acked_bytes += info.size
            self.delivered_bytes += info.size
            if largest_newly is None or seq > largest_newly.seq:
                largest_newly = info
            # Spurious detection: the original copy of a packet we had
            # declared lost has been delivered after all.
            original = info.retx_of if info.retx_of is not None else seq
            if seq in self._declared_lost:
                del self._declared_lost[seq]
                if info.retx_of is None:
                    self._on_spurious_loss(now)
            self._declared_lost.pop(original, None)

        if largest_newly is None:
            return
        self._delivered_time = now
        if largest_newly.seq > self._largest_acked:
            self._largest_acked = largest_newly.seq
        self._advance_lowest_unacked()

        # Recovery ends once data sent after the congestion event is acked.
        if self._in_recovery and self._largest_acked >= self._recovery_until_seq:
            self._in_recovery = False
            self.cca.on_recovery_exit(now)

        # Round accounting.
        if largest_newly.delivered_at_send >= self._round_end_delivered:
            self.round_count += 1
            self._round_end_delivered = self.delivered_bytes

        # RTT sample from the largest newly acked packet.
        rtt_sample: Optional[float] = None
        if largest_newly.seq == self._largest_acked:
            sample = now - largest_newly.sent_time
            if config.loss_style == "quic":
                sample = max(sample - ack.ack_delay, 1e-6)
            if sample > 0:
                rtt_sample = sample
                self.rtt.update(sample)
                self._update_rto_delay()

        # Delivery-rate sample.
        delivery_rate: Optional[float] = None
        interval = now - largest_newly.delivered_time_at_send
        if interval > 0:
            delivery_rate = (
                self.delivered_bytes - largest_newly.delivered_at_send
            ) / interval

        self._detect_losses(now)

        event = AckEvent(
            now=now,
            bytes_acked=newly_acked_bytes,
            rtt_sample=rtt_sample,
            delivery_rate=delivery_rate,
            is_app_limited=False,
            bytes_in_flight=self.bytes_in_flight,
            round_count=self.round_count,
        )
        self.cca.on_ack(event)
        if self._consecutive_timeouts:
            self._consecutive_timeouts = 0
            self._update_rto_delay()

        # Finite-flow completion: all data handed over and none pending.
        if self.completion_time is None and self._all_fresh_sent:
            # Spurious declarations can leave already-acked entries in
            # the retransmission queue; purge before deciding.
            self._retx_queue = deque(
                s
                for s in self._retx_queue
                if (info := self._sent.get(s)) is not None
                and info.lost
                and not info.acked
            )
            if (
                not self._retx_queue
                and self.bytes_in_flight <= 0
                and self._lowest_unacked >= self._next_seq
            ):
                self.completion_time = now
                self._rto_timer.cancel()
                self._loss_timer.cancel()

        self._arm_rto()
        self._sample_cwnd(now)
        self._try_send()

    def _advance_lowest_unacked(self) -> None:
        sent = self._sent
        low = self._lowest_unacked
        nxt = self._next_seq
        while low < nxt:
            info = sent.get(low)
            if info is None or info.acked or info.lost:
                low += 1
            else:
                break
        self._lowest_unacked = low

    # ------------------------------------------------------------------
    # Loss detection
    # ------------------------------------------------------------------
    def _detect_losses(self, now: float) -> None:
        """Declare losses by packet threshold and time threshold.

        The packet threshold is the classic 3-dup/SACK reordering degree.
        The time threshold covers small windows where 3 later deliveries
        may never happen: QUIC's 9/8 * max(srtt, latest_rtt) (RFC 9002
        §6.1.2), which kernel TCP matches in spirit via RACK-TLP (the
        default since 4.18, so also on the paper's 5.13 testbed).  A loss
        timer re-runs detection when the earliest outstanding packet
        crosses the threshold without further ACKs arriving.
        """
        largest = self._largest_acked
        if largest < 0:
            return
        # Both modes use the QUIC-style 9/8 threshold: kernel RACK-TLP's
        # adaptive window behaves similarly at these time scales, and an
        # asymmetric threshold systematically biases kernel-vs-QUIC BBR
        # competition (verified during calibration).
        threshold = self.rtt.loss_time_threshold()
        threshold_time = now - threshold
        lost_any = False
        earliest_pending: Optional[float] = None
        for seq in range(self._lowest_unacked, largest):
            info = self._sent.get(seq)
            if info is None or info.acked or info.lost:
                continue
            lost = largest - seq >= PACKET_THRESHOLD
            if not lost:
                if info.sent_time <= threshold_time:
                    lost = True
                elif earliest_pending is None:
                    earliest_pending = info.sent_time + threshold
            if lost:
                self._declare_lost(info, now)
                lost_any = True
        if earliest_pending is not None:
            self._loss_timer.arm(max(earliest_pending - now, 1e-6))
        else:
            self._loss_timer.cancel()
        if lost_any:
            self._advance_lowest_unacked()
            self._try_send()

    def _on_loss_timer(self) -> None:
        self._detect_losses(self._loop.now)

    def _declare_lost(self, info: Packet, now: float, notify: bool = True) -> None:
        info.lost = True
        self.bytes_in_flight -= info.size
        self._retx_queue.append(info.seq)
        self._declared_lost[info.seq] = info.sent_time
        if self.trace is not None:
            self.trace.on_loss(now, info.seq)
        self._episode_losses += 1
        if notify and info.seq > self._recovery_until_seq:
            self._begin_congestion_event(now)

    def _begin_congestion_event(self, now: float) -> None:
        self._recovery_until_seq = self._next_seq - 1
        self._in_recovery = True
        self._congestion_events += 1
        self._episode_losses = 1
        self.cca.on_congestion_event(now, self.bytes_in_flight)
        self._sample_cwnd(now, force=True)
        undo = self.config.spurious_undo
        if undo is not None:
            self._schedule_episode_check(now, undo)

    def _schedule_episode_check(self, now: float, undo: SpuriousUndoConfig) -> None:
        window = undo.window_rtts * self.rtt.smoothed
        if self._episode_check is None:
            self._episode_check = Timer(self._loop)
        def check() -> None:
            if self._episode_losses <= undo.max_episode_losses:
                self._on_spurious_loss(self._loop.now)
        self._episode_check.arm(window, check)

    def _on_spurious_loss(self, now: float) -> None:
        self.spurious_events += 1
        self.cca.on_spurious_congestion(now)
        self._sample_cwnd(now, force=True)

    # ------------------------------------------------------------------
    # Timeouts
    # ------------------------------------------------------------------
    def _update_rto_delay(self) -> None:
        self._rto_delay = self.rtt.rto() * (2 ** min(self._consecutive_timeouts, 6))

    def _arm_rto(self) -> None:
        if self.bytes_in_flight <= 0:
            self._rto_timer.cancel()
            return
        self._rto_timer.arm(self._rto_delay)

    def _on_rto_timeout(self) -> None:
        now = self._loop.now
        self._consecutive_timeouts += 1
        self._update_rto_delay()
        # Everything outstanding is presumed lost (kernel
        # ``tcp_enter_loss`` marks all non-SACKed segments lost).  Anything
        # less can deadlock: phantom in-flight bytes above the collapsed
        # cwnd would block retransmission forever.
        any_lost = False
        for seq in range(self._lowest_unacked, self._next_seq):
            info = self._sent.get(seq)
            if info is not None and not info.acked and not info.lost:
                # The CCA is notified below (RTO collapse or, for QUIC's
                # first probe timeout, not at all); the losses are silent.
                self._declare_lost(info, now, notify=False)
                any_lost = True
        if any_lost:
            self._recovery_until_seq = self._next_seq - 1
            self._advance_lowest_unacked()
        collapse = (
            self.config.loss_style == "tcp" or self._consecutive_timeouts >= 2
        )
        if collapse:
            self.cca.on_rto(now)
            self._sample_cwnd(now, force=True)
        self._arm_rto()
        self._try_send()

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _sample_cwnd(self, now: float, force: bool = False) -> None:
        """Record cwnd and pacing rate if ``cwnd_sample_interval`` has
        passed since the last sample, or regardless when ``force`` is set
        (congestion events, undos and RTOs)."""
        if self.trace is None:
            return
        if not force and now - self._last_cwnd_sample < self.config.cwnd_sample_interval:
            return
        self._last_cwnd_sample = now
        self.trace.on_cwnd(now, self.effective_cwnd)
        rate = self._pacing_rate()
        if rate is not None:
            self.trace.on_rate(now, rate)

    def stop(self) -> None:
        """Stop sending and cancel timers so the event loop can drain."""
        self._stopped = True
        self._rto_timer.cancel()
        self._loss_timer.cancel()
        if self._episode_check is not None:
            self._episode_check.cancel()
        if self._send_wakeup is not None:
            self._send_wakeup.cancel()
            self._send_wakeup = None


@dataclass
class ReceiverConfig:
    """ACK generation policy."""

    #: Emit an ACK every N ack-eliciting packets (QUIC default 2,
    #: kernel delayed-ACK effectively 2).
    ack_frequency: int = 2
    #: Maximum time a pending ACK may be delayed (QUIC max_ack_delay
    #: 25 ms; kernel delayed-ACK timer 40 ms).
    max_ack_delay: float = 0.025
    #: ACK immediately on out-of-order arrivals (both TCP and QUIC do).
    immediate_on_reorder: bool = True

    def validate(self) -> None:
        if self.ack_frequency < 1:
            raise ValueError("ack frequency must be >= 1")
        if self.max_ack_delay < 0:
            raise ValueError("max ack delay must be non-negative")


class Receiver:
    """Receives data packets, records the trace and generates ACKs."""

    def __init__(
        self,
        loop: EventLoop,
        flow_id: int,
        send_ack: Callable[[Packet], None],
        config: Optional[ReceiverConfig] = None,
        trace: Optional[FlowTrace] = None,
    ):
        config = config or ReceiverConfig()
        config.validate()
        self._loop = loop
        self.flow_id = flow_id
        self._send_ack = send_ack
        self.config = config
        self.trace = trace

        self._received: set[int] = set()
        self._cum_ack = 0
        self._largest = -1
        self._largest_sent_time = 0.0
        self._largest_arrival_time = 0.0
        self._pending: List[int] = []
        self._pending_since: Optional[float] = None
        self._ack_timer = Timer(loop, self._flush_ack)
        self._delivered_bytes = 0

    def on_packet(self, packet: Packet) -> None:
        now = self._loop.now
        stream_seq = packet.retx_of if packet.retx_of is not None else packet.seq
        duplicate = stream_seq in self._received
        if not duplicate:
            self._received.add(stream_seq)
            self._delivered_bytes += packet.size
            while self._cum_ack in self._received:
                self._cum_ack += 1
            if self.trace is not None:
                self.trace.on_delivery(
                    arrival_time=now,
                    sent_time=packet.sent_time,
                    seq=stream_seq,
                    payload_bytes=packet.size,
                    is_retransmission=packet.retx_of is not None,
                )
        out_of_order = packet.seq != self._largest + 1
        if packet.seq > self._largest:
            self._largest = packet.seq
            self._largest_sent_time = packet.sent_time
            self._largest_arrival_time = now
        # ACK packet numbers (QUIC) even for duplicate stream data, so the
        # sender can detect spurious retransmissions.
        self._pending.append(packet.seq)
        if self._pending_since is None:
            self._pending_since = now

        immediate = len(self._pending) >= self.config.ack_frequency or (
            self.config.immediate_on_reorder and out_of_order
        )
        if immediate:
            self._flush_ack()
        elif not self._ack_timer.armed:
            self._ack_timer.arm(self.config.max_ack_delay)

    def _flush_ack(self) -> None:
        if not self._pending:
            return
        now = self._loop.now
        self._ack_timer.cancel()
        # RFC 9000 ack_delay: time the *largest acknowledged* packet has
        # been held at the receiver, not the age of the ACK batch.
        ack_delay = max(now - self._largest_arrival_time, 0.0)
        info = AckInfo(
            cum_ack=self._cum_ack,
            largest_acked=self._largest,
            newly_acked=self._pending,
            largest_sent_time=self._largest_sent_time,
            ack_delay=ack_delay,
            delivered_bytes=self._delivered_bytes,
        )
        self._pending = []
        self._pending_since = None
        ack = Packet(
            flow_id=self.flow_id,
            seq=self._largest,
            size=ACK_SIZE,
            sent_time=now,
            is_ack=True,
            ack=info,
        )
        self._send_ack(ack)
