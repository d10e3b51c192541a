"""Finite flows, completion times and staggered-start fairness."""

import numpy as np
import pytest

from repro.exec import Executor
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.runner import Impl
from repro.harness.shortflows import (
    compute_staggered_shares,
    fct_sweep,
    flow_completion_time,
    staggered_cache_key,
    staggered_fairness,
)
from repro.netsim.endpoint import SenderConfig

CONDITION = NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=1)


def test_sender_config_validates_total_bytes():
    with pytest.raises(ValueError):
        SenderConfig(total_bytes=0).validate()
    SenderConfig(total_bytes=10_000).validate()


def test_uncontended_transfer_completes_near_line_rate():
    result = flow_completion_time(
        Impl("linux", "cubic"), transfer_bytes=2_000_000, condition=CONDITION,
        horizon_s=30.0,
    )
    assert result.completed
    # 2 MB at 10 Mbps is ~1.6 s plus slow start; allow generous slack.
    assert 1.2 < result.fct_s < 6.0
    assert result.goodput_mbps() > 2.5


def test_small_transfer_dominated_by_rtt():
    result = flow_completion_time(
        Impl("linux", "cubic"), transfer_bytes=14_480, condition=CONDITION,
        horizon_s=10.0,
    )
    assert result.completed
    # 10 packets fit the initial window: one-ish RTT plus handshake-free
    # delivery. Must be far below a bandwidth-limited time.
    assert result.fct_s < 0.2


def test_fct_grows_with_size():
    results = fct_sweep(
        Impl("linux", "cubic"), [50_000, 500_000, 2_000_000], CONDITION
    )
    fcts = [r.fct_s for r in results]
    assert all(r.completed for r in results)
    assert fcts[0] < fcts[1] < fcts[2]


def test_background_flow_slows_transfer():
    alone = flow_completion_time(
        Impl("linux", "cubic"), 1_000_000, CONDITION, horizon_s=40.0
    )
    contended = flow_completion_time(
        Impl("linux", "cubic"), 1_000_000, CONDITION,
        competing=Impl("linux", "cubic"), horizon_s=40.0,
    )
    assert alone.completed and contended.completed
    assert contended.fct_s > alone.fct_s


def test_incomplete_transfer_reported():
    result = flow_completion_time(
        Impl("linux", "cubic"), 50_000_000, CONDITION, horizon_s=2.0
    )
    assert not result.completed
    assert result.goodput_mbps() is None


def test_sender_stops_after_finite_transfer():
    from repro.netsim.network import Network
    from repro.stacks import registry

    spec = registry.get_stack("linux").flow_spec("cubic", label="finite")
    spec.sender_config.total_bytes = 100_000
    network = Network(CONDITION.link_config(), [spec], seed=1)
    network.run(10.0)
    sender = network.senders[0]
    assert sender.complete
    # Sent little more than the transfer itself (fresh data respected).
    assert sender._fresh_bytes_sent <= 100_000 + sender.config.mss


def test_staggered_late_comer_reaches_fair_share(fresh_executor):
    cfg = ExperimentConfig(duration_s=25.0, trials=2)
    share = staggered_fairness(
        Impl("linux", "cubic"), Impl("linux", "cubic"), CONDITION, cfg,
        stagger_s=4.0, executor=fresh_executor,
    )
    assert 0.25 < share < 0.75


def test_staggered_aggressive_late_comer_takes_more(fresh_executor):
    cfg = ExperimentConfig(duration_s=25.0, trials=2)
    fair = staggered_fairness(
        Impl("linux", "cubic"), Impl("quicgo", "cubic"), CONDITION, cfg,
        stagger_s=4.0, executor=fresh_executor,
    )
    aggressive = staggered_fairness(
        Impl("linux", "cubic"), Impl("quiche", "cubic"), CONDITION, cfg,
        stagger_s=4.0, executor=fresh_executor,
    )
    assert aggressive > fair


def test_staggered_fairness_is_one_executor_run(fresh_executor, monkeypatch):
    calls = []
    run = Executor.run

    def counting(self, jobs, campaign="campaign"):
        calls.append([job.key for job in jobs])
        return run(self, jobs, campaign)

    monkeypatch.setattr(Executor, "run", counting)
    first, late = Impl("linux", "cubic"), Impl("quicgo", "cubic")
    cfg = ExperimentConfig(duration_s=6.0, trials=1)
    share = staggered_fairness(
        first, late, CONDITION, cfg, stagger_s=2.0, executor=fresh_executor
    )
    key = staggered_cache_key(first, late, CONDITION, cfg, 2.0)
    assert calls == [[key]]
    assert np.array_equal(
        fresh_executor.cache.get(key),
        compute_staggered_shares(first, late, CONDITION, cfg, 2.0),
    )
    again = staggered_fairness(
        first, late, CONDITION, cfg, stagger_s=2.0, executor=fresh_executor
    )
    assert [r.status for r in fresh_executor.last_records] == ["cached"]
    assert again == share


def test_invalid_transfer_size():
    with pytest.raises(ValueError):
        flow_completion_time(Impl("linux", "cubic"), 0, CONDITION)
