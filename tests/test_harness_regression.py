"""Kernel-milestone regression harness (§6 "Keeping up with the kernel")."""

import pytest

from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.regression import (
    MILESTONES,
    KernelMilestone,
    RegressionRow,
    flipped_verdicts,
    regression_matrix,
)

CONDITION = NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=1)
QUICK = ExperimentConfig(duration_s=10.0, trials=2)


def test_builtin_milestones():
    names = [m.name for m in MILESTONES]
    assert "5.13-stock" in names
    pre = next(m for m in MILESTONES if m.name == "pre-hystart")
    assert pre.variant_for("cubic") == "nohystart"
    assert pre.variant_for("bbr") == "default"


def test_regression_row_verdicts():
    row = RegressionRow("x", "cubic", {"a": 0.8, "b": 0.3})
    assert row.verdicts() == {"a": True, "b": False}
    assert row.verdict_flips
    stable = RegressionRow("y", "cubic", {"a": 0.8, "b": 0.9})
    assert not stable.verdict_flips
    assert flipped_verdicts([row, stable]) == [row]


def test_regression_matrix_runs(fresh_executor):
    rows = regression_matrix(
        milestones=MILESTONES,
        implementations=[("quicgo", "cubic"), ("xquic", "cubic")],
        condition=CONDITION,
        config=QUICK,
        executor=fresh_executor,
    )
    assert len(rows) == 2
    for row in rows:
        assert set(row.conformance) == {"5.13-stock", "pre-hystart"}
        for value in row.conformance.values():
            assert 0 <= value <= 1


def test_custom_milestone_variant_routing(fresh_executor):
    milestone = KernelMilestone("only-nohystart", {"cubic": "nohystart"})
    rows = regression_matrix(
        milestones=[milestone],
        implementations=[("xquic", "cubic")],
        condition=CONDITION,
        config=QUICK,
        executor=fresh_executor,
    )
    assert "only-nohystart" in rows[0].conformance


def test_regression_matrix_is_one_campaign(tmp_path):
    # Every (implementation, milestone) cell's trials go into one
    # Executor.run, so a --jobs N run starts one worker pool, not one
    # per cell.
    import json

    from repro.exec import Executor
    from repro.harness.cache import ResultCache

    manifest = tmp_path / "manifest.jsonl"
    with Executor(cache=ResultCache(), manifest_path=manifest) as executor:
        regression_matrix(
            milestones=MILESTONES,
            implementations=[("quicgo", "cubic"), ("xquic", "cubic")],
            condition=CONDITION,
            config=ExperimentConfig(duration_s=3.0, trials=2),
            executor=executor,
        )
    records = [json.loads(line) for line in manifest.read_text().splitlines()]
    starts = [r for r in records if r["event"] == "campaign_start"]
    assert len(starts) == 1
    # 2 impls x 2 milestones x (2 test + 2 reference trials).
    assert starts[0]["jobs"] == 16
