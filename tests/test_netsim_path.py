"""Propagation path and netem impairments."""

import random

import pytest

from repro.netsim.engine import EventLoop
from repro.netsim.packet import Packet
from repro.netsim.path import NetemConfig, Path


def make_packet(seq=0):
    return Packet(flow_id=0, seq=seq, size=1000, sent_time=0.0)


def test_fixed_delay_delivery():
    loop = EventLoop()
    arrived = []
    path = Path(loop, 0.020, deliver=lambda p: arrived.append((loop.now, p.seq)))
    path.send(make_packet(seq=7))
    loop.run(1.0)
    assert arrived == [(0.020, 7)]


def test_order_preserved_without_impairments():
    loop = EventLoop()
    arrived = []
    path = Path(loop, 0.010, deliver=lambda p: arrived.append(p.seq))
    for seq in range(5):
        path.send(make_packet(seq=seq))
    loop.run(1.0)
    assert arrived == [0, 1, 2, 3, 4]


def test_random_loss_rate():
    loop = EventLoop()
    arrived = []
    path = Path(
        loop,
        0.001,
        deliver=lambda p: arrived.append(p),
        netem=NetemConfig(loss_rate=0.3),
        rng=random.Random(42),
    )
    for seq in range(2000):
        path.send(make_packet(seq=seq))
    loop.run(10.0)
    assert 0.62 < len(arrived) / 2000 < 0.78
    assert path.lost + path.forwarded == 2000


def test_jitter_bounds_delay():
    loop = EventLoop()
    times = []
    path = Path(
        loop,
        0.010,
        deliver=lambda p: times.append(loop.now),
        netem=NetemConfig(jitter_s=0.002),
        rng=random.Random(1),
    )
    for seq in range(200):
        path.send(make_packet(seq=seq))
    loop.run(1.0)
    assert min(times) >= 0.008 - 1e-9
    assert max(times) <= 0.012 + 1e-9
    assert max(times) > min(times)  # jitter actually applied


def test_reordering_requires_extra_delay():
    with pytest.raises(ValueError):
        NetemConfig(reorder_rate=0.1).validate()


def test_reordering_inverts_some_deliveries():
    loop = EventLoop()
    arrived = []
    path = Path(
        loop,
        0.010,
        deliver=lambda p: arrived.append(p.seq),
        netem=NetemConfig(reorder_rate=0.2, reorder_extra_s=0.005),
        rng=random.Random(3),
    )
    for seq in range(100):
        path.send(make_packet(seq=seq))
        loop.run(loop.now + 0.0005)
    loop.run(2.0)
    assert sorted(arrived) == list(range(100))
    assert arrived != sorted(arrived)


def test_invalid_config_rejected():
    for bad in (
        NetemConfig(jitter_s=-1),
        NetemConfig(loss_rate=1.0),
        NetemConfig(reorder_rate=-0.1),
    ):
        with pytest.raises(ValueError):
            bad.validate()
    with pytest.raises(ValueError):
        Path(EventLoop(), -0.01, deliver=lambda p: None)
