"""Diff engine + the regression acceptance path.

The load-bearing test: running ``regression_matrix`` with a store
attached and then ``diff_runs`` between the two milestone runs must
report exactly the verdict flips the in-memory matrix computes — and the
stored metric values must equal the in-memory ones bit-for-bit.
"""

import numpy as np
import pytest

from repro.exec import Executor
from repro.harness.cache import ResultCache
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.conformance import measure_conformance
from repro.harness.regression import (
    MILESTONES,
    flipped_verdicts,
    milestone_run_name,
    regression_matrix,
    regression_matrix_from_store,
)
from repro.harness.reporting import format_run_diff
from repro.store import (
    ResultStore,
    StoreError,
    diff_against_baseline,
    diff_runs,
)

QUICK = ExperimentConfig(duration_s=6.0, trials=2)
COND = NetworkCondition(bandwidth_mbps=20.0, rtt_ms=10.0, buffer_bdp=1.0)


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "diff.db") as s:
        yield s


def _seed_run(store, name, values):
    """values: {(stack, cca): conf}"""
    run = store.ensure_run(name)
    for (stack, cca), conf in values.items():
        store.record_metrics(
            run, stack=stack, cca=cca, metrics={"conf": conf}, condition=COND
        )
    return run


class TestDiffRuns:
    def test_identical_runs_are_clean(self, store):
        values = {("quiche", "cubic"): 0.8, ("mvfst", "bbr"): 0.3}
        _seed_run(store, "a", values)
        _seed_run(store, "b", values)
        diff = diff_runs(store, "a", "b")
        assert diff.clean and diff.compared == 2
        assert "no differences" in format_run_diff(diff)

    def test_moves_flips_added_removed(self, store):
        _seed_run(store, "a", {
            ("quiche", "cubic"): 0.8,   # stays conformant, value moves
            ("xquic", "cubic"): 0.3,    # flips to conformant
            ("quicgo", "reno"): 0.9,    # disappears
        })
        _seed_run(store, "b", {
            ("quiche", "cubic"): 0.7,
            ("xquic", "cubic"): 0.75,
            ("mvfst", "bbr"): 0.5,      # appears
        })
        diff = diff_runs(store, "a", "b")
        assert diff.compared == 2
        assert [d.label() for d in diff.changed] == [
            f"quiche/cubic @ {COND.describe()}",
            f"xquic/cubic @ {COND.describe()}",
        ]
        (flip,) = diff.flips
        assert flip.label().startswith("xquic/cubic")
        assert not flip.before_verdict and flip.after_verdict
        assert diff.added == [("mvfst", "bbr", "default", COND.describe())]
        assert diff.removed == [("quicgo", "reno", "default", COND.describe())]
        text = format_run_diff(diff)
        assert "FLIP xquic/cubic" in text and "+1 new, -1 gone" in text

    def test_atol_suppresses_noise_but_not_flips(self, store):
        _seed_run(store, "a", {("s", "c"): 0.499})
        _seed_run(store, "b", {("s", "c"): 0.501})
        diff = diff_runs(store, "a", "b", atol=0.01)
        assert diff.changed == [] and len(diff.flips) == 1

    def test_threshold_is_configurable(self, store):
        _seed_run(store, "a", {("s", "c"): 0.55})
        _seed_run(store, "b", {("s", "c"): 0.65})
        assert diff_runs(store, "a", "b", threshold=0.6).flips
        assert not diff_runs(store, "a", "b", threshold=0.5).flips

    def test_baseline_diff_and_unknown_baseline(self, store):
        _seed_run(store, "anchor-run", {("s", "c"): 0.8})
        _seed_run(store, "new", {("s", "c"): 0.2})
        store.set_baseline("anchor", store.run("anchor-run"))
        diff = diff_against_baseline(store, "new", "anchor")
        assert diff.run_a == "anchor-run" and len(diff.flips) == 1
        with pytest.raises(StoreError, match="unknown baseline"):
            diff_against_baseline(store, "new", "ghost")


class TestRegressionAcceptance:
    """ISSUE acceptance: store diff == in-memory verdict flips, and
    stored metrics == in-memory results at full precision."""

    def test_store_diff_reports_exactly_the_matrix_flips(self, store):
        # xquic/cubic is the natural flip case: its missing HyStart makes
        # it non-conformant against the stock kernel but conformant
        # against the pre-HyStart milestone.
        impls = [("xquic", "cubic"), ("quicgo", "reno")]
        rows = regression_matrix(
            milestones=MILESTONES,
            implementations=impls,
            condition=COND,
            config=QUICK,
            executor=Executor(cache=ResultCache()),
            store=store,
        )
        flips_memory = {(r.stack, r.cca) for r in flipped_verdicts(rows)}
        assert flips_memory == {("xquic", "cubic")}

        diff = diff_runs(
            store,
            milestone_run_name(MILESTONES[0]),
            milestone_run_name(MILESTONES[1]),
        )
        flips_store = {(f.subject[0], f.subject[1]) for f in diff.flips}
        assert flips_store == flips_memory
        assert diff.compared == len(impls)

    def test_stored_metrics_bit_identical_to_memory(self, store):
        run = store.ensure_run("one-off")
        measurement = measure_conformance(
            "quicgo", "reno", COND, QUICK, executor=Executor(cache=ResultCache()),
            store=store, store_run="one-off",
        )
        table = {
            row.metric: row.value for row in store.query(run=run)
        }
        result = measurement.result
        assert table["conf"] == result.conformance
        assert table["conf_t"] == result.conformance_t
        assert table["conf_old"] == result.conformance_legacy
        assert table["delta_tput_mbps"] == result.delta_throughput_mbps
        assert table["delta_delay_ms"] == result.delta_delay_ms
        assert table["k_test"] == float(result.test_envelope.k)
        assert table["k_ref"] == float(result.reference_envelope.k)

    def test_matrix_rebuilt_from_store_matches_memory(self, store):
        impls = [("xquic", "cubic")]
        rows = regression_matrix(
            milestones=MILESTONES,
            implementations=impls,
            condition=COND,
            config=QUICK,
            executor=Executor(cache=ResultCache()),
            store=store,
        )
        rebuilt = regression_matrix_from_store(store, MILESTONES)
        assert len(rebuilt) == 1
        assert rebuilt[0].stack == "xquic" and rebuilt[0].cca == "cubic"
        assert rebuilt[0].conformance == rows[0].conformance
        assert rebuilt[0].verdict_flips == rows[0].verdict_flips

    def test_trial_payloads_round_trip_through_store_cache(self, store):
        # The executor's store sink keeps trial arrays; pulling them back
        # through the warehouse must be bit-identical to recomputing.
        from repro.harness.conformance import gather_trials
        from repro.harness.runner import Impl, trial_identity
        from repro.store import StoreCache

        test, ref = Impl("quicgo", "reno"), Impl("linux", "reno")
        trials = gather_trials(
            test, ref, COND, QUICK, executor=Executor(cache=ResultCache())
        )
        keys = [
            trial_identity(test, ref, COND, QUICK, t)[1]
            for t in range(QUICK.trials)
        ]
        store.put_trials(zip(keys, trials))
        cache = StoreCache(store)
        for key, expected in zip(keys, trials):
            loaded = cache.get(key)
            assert loaded is not None
            assert loaded.tobytes() == np.ascontiguousarray(expected).tobytes()
        assert cache.store_hits == QUICK.trials
