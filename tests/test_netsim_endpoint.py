"""Sender/receiver transport machinery over a controllable loopback."""

import pytest

from repro.cca.base import AckEvent, CongestionController
from repro.netsim.engine import EventLoop, Timer
from repro.netsim.endpoint import (
    Receiver,
    ReceiverConfig,
    Sender,
    SenderConfig,
    SpuriousUndoConfig,
)
from repro.netsim.trace import FlowTrace


class FixedWindow(CongestionController):
    """Test controller: constant cwnd, records every callback."""

    name = "fixed"

    def __init__(self, mss, cwnd_packets=10, rate=None):
        super().__init__(mss)
        self._cwnd = cwnd_packets * mss
        self._rate = rate
        self.acks = []
        self.congestion_events = []
        self.spurious = []
        self.rtos = []
        self.recovery_exits = []

    @property
    def cwnd(self):
        return self._cwnd

    def pacing_rate(self):
        return self._rate

    def on_ack(self, event: AckEvent):
        self.acks.append(event)

    def on_congestion_event(self, now, bytes_in_flight):
        self.congestion_events.append(now)

    def on_spurious_congestion(self, now):
        self.spurious.append(now)

    def on_rto(self, now):
        self.rtos.append(now)

    def on_recovery_exit(self, now):
        self.recovery_exits.append(now)


class Loopback:
    """Sender <-> receiver with programmable per-packet drops."""

    def __init__(
        self,
        sender_config=None,
        receiver_config=None,
        cca=None,
        delay=0.01,
        drop_seqs=(),
    ):
        self.loop = EventLoop()
        self.drop_seqs = set(drop_seqs)
        self.trace = FlowTrace(0)
        self.receiver = Receiver(
            self.loop,
            0,
            send_ack=lambda pkt: self.loop.schedule(delay / 2, lambda: self.sender.on_ack(pkt)),
            config=receiver_config or ReceiverConfig(),
            trace=self.trace,
        )

        def transmit(pkt):
            if pkt.seq in self.drop_seqs:
                self.drop_seqs.discard(pkt.seq)
                return
            self.loop.schedule(delay / 2, lambda: self.receiver.on_packet(pkt))

        self.cca = cca or FixedWindow(1000)
        self.sender = Sender(
            self.loop,
            0,
            cca=self.cca,
            transmit=transmit,
            config=sender_config or SenderConfig(mss=1000, initial_rtt=0.01),
            trace=self.trace,
        )

    def run(self, t):
        self.sender.start()
        self.loop.run(t)


def test_bulk_delivery_and_ack_clocking():
    lb = Loopback()
    lb.run(1.0)
    # 10-packet window over a 10 ms RTT = ~1000 packets in 1 s.
    assert lb.sender.delivered_bytes >= 0.8e6
    assert lb.sender.bytes_in_flight <= lb.cca.cwnd


def test_cwnd_limits_inflight():
    lb = Loopback(cca=FixedWindow(1000, cwnd_packets=3))
    lb.run(0.5)
    assert lb.sender.bytes_in_flight <= 3000


def test_rtt_estimate_converges_to_path_rtt():
    lb = Loopback()
    lb.run(0.5)
    assert lb.sender.rtt.smoothed == pytest.approx(0.01, abs=0.004)


def test_packet_threshold_loss_detection_and_retransmission():
    lb = Loopback(drop_seqs={5})
    lb.run(0.5)
    assert lb.sender.retransmissions >= 1
    assert len(lb.cca.congestion_events) >= 1
    # The stream is complete at the receiver despite the drop.
    seqs = {r.seq for r in lb.trace.records}
    assert 5 in seqs


def test_single_congestion_event_per_loss_episode():
    # Several drops in one round trip must collapse into one event.
    lb = Loopback(drop_seqs={5, 6, 7})
    lb.run(0.3)
    assert len(lb.cca.congestion_events) == 1


def test_recovery_exit_fires_after_episode():
    lb = Loopback(drop_seqs={5})
    lb.run(0.5)
    assert len(lb.cca.recovery_exits) == len(lb.cca.congestion_events)


def test_separated_episodes_are_distinct_events():
    lb = Loopback(drop_seqs={5, 300})
    lb.run(2.0)
    assert len(lb.cca.congestion_events) == 2


def test_rto_recovers_from_total_blackout():
    # Drop a whole initial flight: only the RTO path can recover.
    lb = Loopback(drop_seqs=set(range(10)))
    lb.run(3.0)
    assert lb.sender.delivered_bytes > 0
    assert lb.cca.rtos or lb.sender.retransmissions >= 10


def test_rto_declares_all_outstanding_lost():
    lb = Loopback(drop_seqs=set(range(10)))
    lb.run(3.0)
    # No phantom in-flight bytes left behind.
    assert lb.sender.bytes_in_flight <= lb.cca.cwnd


def test_pacing_spaces_transmissions():
    # 100 kB/s pacing with 1000-B packets = 10 ms spacing.
    cca = FixedWindow(1000, cwnd_packets=50, rate=100e3)
    lb = Loopback(cca=cca)
    lb.run(1.0)
    sent = lb.sender.packets_sent
    assert sent == pytest.approx(100, abs=15)


def test_send_timer_granularity_quantizes_sends():
    config = SenderConfig(mss=1000, initial_rtt=0.01, send_timer_granularity=0.004)
    lb = Loopback(sender_config=config, cca=FixedWindow(1000, cwnd_packets=4, rate=100e3))
    lb.run(0.5)
    # All sends happen on 4 ms ticks; delivery timestamps inherit the grid
    # (plus the constant 5 ms one-way delay).
    for record in lb.trace.records:
        phase = (record.sent_time / 0.004) % 1.0
        assert min(phase, 1 - phase) < 1e-6


def test_spurious_undo_fires_for_isolated_loss():
    config = SenderConfig(
        mss=1000,
        initial_rtt=0.01,
        spurious_undo=SpuriousUndoConfig(window_rtts=1.0, max_episode_losses=3),
    )
    lb = Loopback(sender_config=config, drop_seqs={20})
    lb.run(1.0)
    assert lb.sender.spurious_events >= 1
    assert lb.cca.spurious


def test_spurious_undo_skipped_for_loss_storm():
    config = SenderConfig(
        mss=1000,
        initial_rtt=0.01,
        spurious_undo=SpuriousUndoConfig(window_rtts=1.0, max_episode_losses=2),
    )
    lb = Loopback(sender_config=config, drop_seqs={20, 21, 22, 23, 24})
    lb.run(1.0)
    assert not lb.cca.spurious


def test_cwnd_scale_reduces_inflight():
    config = SenderConfig(mss=1000, initial_rtt=0.01, cwnd_scale=0.5)
    lb = Loopback(sender_config=config, cca=FixedWindow(1000, cwnd_packets=10))
    lb.run(0.5)
    assert lb.sender.bytes_in_flight <= 5000


class TestReceiver:
    def test_ack_frequency(self):
        lb = Loopback(receiver_config=ReceiverConfig(ack_frequency=2, max_ack_delay=10.0))
        lb.run(0.2)
        # Roughly one ACK per two packets.
        acks = len(lb.cca.acks)
        packets = lb.sender.packets_sent
        assert acks <= packets / 2 + 2

    def test_delayed_ack_timer_flushes_stragglers(self):
        # cwnd of 1: every packet waits for the delayed-ACK timer.
        lb = Loopback(
            cca=FixedWindow(1000, cwnd_packets=1),
            receiver_config=ReceiverConfig(ack_frequency=2, max_ack_delay=0.02),
        )
        lb.run(0.5)
        assert lb.sender.delivered_bytes > 0
        # Each round trip costs path RTT + ack delay (~30 ms).
        assert lb.sender.packets_sent < 25

    def test_ack_delay_field_reflects_hold_time(self):
        lb = Loopback(
            cca=FixedWindow(1000, cwnd_packets=1),
            receiver_config=ReceiverConfig(ack_frequency=2, max_ack_delay=0.02),
        )
        lb.run(0.3)
        # QUIC-style senders subtract ack_delay: the RTT estimate must be
        # near the true path RTT, not RTT + 20 ms.
        assert lb.sender.rtt.smoothed == pytest.approx(0.01, abs=0.005)

    def test_duplicate_data_not_recorded_twice(self):
        lb = Loopback(drop_seqs={3})
        lb.run(0.5)
        seqs = [r.seq for r in lb.trace.records]
        assert len(seqs) == len(set(seqs))

    def test_invalid_receiver_config(self):
        with pytest.raises(ValueError):
            ReceiverConfig(ack_frequency=0).validate()
        with pytest.raises(ValueError):
            ReceiverConfig(max_ack_delay=-1).validate()


class CheckedRtoTimer(Timer):
    """An RTO timer that checks every delay it is armed with against the
    RTT estimate and the timeout count at that moment."""

    def __init__(self, sender):
        super().__init__(sender._loop, sender._on_rto_timeout)
        self.sender = sender
        self.backoffs = []

    def arm(self, delay, callback=None):
        sender = self.sender
        backoff = min(sender._consecutive_timeouts, 6)
        assert delay == sender.rtt.rto() * 2**backoff
        self.backoffs.append(backoff)
        super().arm(delay, callback)


def test_rto_delay_follows_rtt_and_backoff():
    # Three blacked-out flights: three consecutive RTOs back off (QUIC
    # collapses the window from the second on), then ACKs bring RTT
    # samples and reset the back-off.
    lb = Loopback(drop_seqs=set(range(30)))
    timer = CheckedRtoTimer(lb.sender)
    lb.sender._rto_timer = timer
    lb.run(12.0)
    assert len(lb.cca.rtos) == 2
    assert max(timer.backoffs) == 3
    assert timer.backoffs[-1] == 0 and lb.sender.rtt.srtt is not None
    assert lb.sender.delivered_bytes > 100_000


def test_invalid_sender_config():
    with pytest.raises(ValueError):
        SenderConfig(mss=0).validate()
    with pytest.raises(ValueError):
        SenderConfig(loss_style="sctp").validate()
    with pytest.raises(ValueError):
        SenderConfig(cwnd_scale=0).validate()
    with pytest.raises(ValueError):
        SenderConfig(send_timer_granularity=-1).validate()


def test_stop_halts_transmission():
    lb = Loopback()
    lb.run(0.2)
    sent = lb.sender.packets_sent
    lb.sender.stop()
    lb.loop.run(0.5)
    assert lb.sender.packets_sent == sent
