"""Peer-conformance campaigns: spec wiring, trial identity, cache discipline.

The acceptance bar for the ``peer_conformance`` kind: trials share the
harness's content-addressed identity (so reruns and resubmissions are
fully cache-served), results are bit-identical at any executor job
count, and the spec layer rejects malformed peer groups at submit time.
"""

import numpy as np
import pytest

from repro.ccax.campaign import (
    DEFAULT_HOST_STACK,
    compute_peer_trial,
    evaluate_peer_group,
    peer_trial_identity,
    peer_trial_jobs,
    record_peer_result,
)
from repro.harness import scenarios
from repro.harness.cache import ResultCache
from repro.harness.config import ExperimentConfig
from repro.harness.runner import Impl, trial_identity
from repro.service.specs import SpecError, execute_campaign, parse_campaign_spec
from repro.store import ResultStore

#: Small enough to keep the module fast, long enough for distinct PEs.
FAST = {"duration_s": 4, "trials": 2, "seed": 0}
CONDITION = {"bandwidth_mbps": 8, "rtt_ms": 20, "buffer_bdp": 0.6}
PEERS = ["bbr3", "cubic", "gcc"]


def peer_payload(**overrides):
    payload = {
        "kind": "peer_conformance",
        "peers": list(PEERS),
        "conditions": [dict(CONDITION)],
        **FAST,
        "run": "peer-test",
    }
    payload.update(overrides)
    return payload


class TestSpec:
    def test_parse_and_implementations(self):
        spec = parse_campaign_spec(peer_payload())
        assert spec.kind == "peer_conformance"
        assert spec.peers == tuple(PEERS)
        # Each peer is one implementation on the neutral host stack.
        assert spec.implementations() == [
            (DEFAULT_HOST_STACK, peer) for peer in PEERS
        ]
        explicit = parse_campaign_spec(peer_payload(host_stack="linux"))
        assert explicit.host_stack == "linux"

    def test_canonical_round_trip(self):
        spec = parse_campaign_spec(peer_payload(host_stack="linux"))
        again = parse_campaign_spec(spec.canonical())
        assert again == spec
        assert again.fingerprint() == spec.fingerprint()

    def test_old_kinds_unaffected_by_new_fields(self):
        # Fingerprint stability: a spec of any pre-existing kind must
        # not grow peers/host_stack/cca_modules keys in its canonical
        # form, or every journaled fingerprint would shift.
        doc = parse_campaign_spec({"kind": "conformance"}).canonical()
        assert "peers" not in doc
        assert "host_stack" not in doc
        assert "cca_modules" not in doc

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"kind": "matrix", "peers": ["cubic"]}, "only valid for"),
            ({"kind": "conformance", "host_stack": "linux"}, "only valid for"),
            ({"kind": "matrix", "cca_modules": ["x.py"]}, "only valid for"),
            ({"kind": "peer_conformance"}, "non-empty spec.peers"),
            (peer_payload(peers=["bbr3", "bbr3"]), "duplicate"),
            (peer_payload(peers=["bbr3", "vegas"]), "unknown peer cca"),
            (peer_payload(host_stack="nosuch"), "unknown host_stack"),
            (peer_payload(stacks=["quiche"]), "must be empty"),
            (peer_payload(ccas=["cubic"]), "must be empty"),
            (peer_payload(cca_modules=["/does/not/exist.py"]),
             "failed to load"),
        ],
    )
    def test_bad_peer_specs_fail_at_submit_time(self, payload, fragment):
        with pytest.raises(SpecError) as err:
            parse_campaign_spec(payload)
        assert fragment in str(err.value)

    def test_host_must_support_every_peer(self):
        # The kernel trio's hosting decisions are per-stack deviation
        # tables; a registry-fallback-only stack cannot host them unless
        # its own table says so.  Find a stack without cubic support.
        from repro.stacks import registry as stacks

        non_hosts = [
            name
            for name, profile in stacks.STACKS.items()
            if not profile.supports("cubic")
        ]
        if not non_hosts:  # pragma: no cover - registry-dependent
            pytest.skip("every stack hosts cubic")
        with pytest.raises(SpecError, match="does not host"):
            parse_campaign_spec(
                peer_payload(peers=["cubic"], host_stack=non_hosts[0])
            )


class TestTrialIdentity:
    def test_peer_trial_is_a_self_pair_trial(self):
        condition = scenarios.shallow_buffer()
        config = ExperimentConfig(duration_s=4.0, trials=2)
        impl = Impl("linux", "bbr3")
        for trial in range(2):
            assert peer_trial_identity(
                "linux", "bbr3", condition, config, trial
            ) == trial_identity(impl, impl, condition, config, trial)

    def test_jobs_carry_content_addressed_keys(self):
        condition = scenarios.shallow_buffer()
        config = ExperimentConfig(duration_s=4.0, trials=2)
        jobs = peer_trial_jobs(["bbr3", "gcc"], condition, config)
        assert len(jobs) == 4
        keys = [j.key for j in jobs]
        assert len(set(keys)) == 4
        _, expected = peer_trial_identity(
            DEFAULT_HOST_STACK, "bbr3", condition, config, 0
        )
        assert keys[0] == expected


class TestCampaign:
    def test_serial_campaign_records_share_matrix_rows(self, tmp_path):
        spec = parse_campaign_spec(peer_payload())
        with ResultStore(str(tmp_path / "store.db")) as store:
            summary = execute_campaign(spec, store, None)
            rows = list(store.query(run="peer-test"))
        assert summary["runs"] == ["peer-test"]
        # 3 peers: 6 off-diagonal pair cells + 3 aggregate cells.
        assert summary["cells"] == 9
        group = summary["peer_conformance"][0]
        assert sorted(group["peers"]) == sorted(PEERS)
        assert 1 <= group["k"] <= len(PEERS)

        pair_rows = [r for r in rows if r.variant == "peer"]
        agg_rows = [r for r in rows if r.cca == "aggregate"]
        assert {r.metric for r in pair_rows} == {"peer_conf", "peer_distance"}
        assert {r.metric for r in agg_rows} == {"peer_score", "cluster", "k"}
        # Row peer in `stack`, column peer in `cca`, symmetric values.
        conf = {
            (r.stack, r.cca): r.value
            for r in pair_rows
            if r.metric == "peer_conf"
        }
        for (a, b), value in conf.items():
            assert conf[(b, a)] == value
            assert 0.0 <= value <= 1.0

    def test_resubmission_is_fully_cache_served(self, tmp_path, monkeypatch):
        # Unique protocol so no earlier test pre-warmed these keys.
        payload = peer_payload(duration_s=4.5, run="peer-cached")
        spec = parse_campaign_spec(payload)
        with ResultStore(str(tmp_path / "first.db")) as store:
            first = execute_campaign(spec, store, None)

        # Every simulation from here on is a bug: the identical spec
        # must be served entirely by content-addressed cache keys.
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("run_pair called on a cache-served rerun")

        monkeypatch.setattr("repro.harness.runner.run_pair", boom)
        respec = parse_campaign_spec(payload)
        with ResultStore(str(tmp_path / "second.db")) as store:
            second = execute_campaign(respec, store, None)
        assert second["peer_conformance"] == first["peer_conformance"]

    def test_bit_identical_across_job_counts(self, tmp_path):
        spec = parse_campaign_spec(peer_payload(peers=["bbr3", "gcc"]))
        from repro.exec import Executor

        summaries = []
        for jobs in (1, 3):
            cache = ResultCache()
            with ResultStore(str(tmp_path / f"store-{jobs}.db")) as store:
                executor = Executor(jobs=jobs, cache=cache)
                try:
                    summaries.append(execute_campaign(spec, store, executor))
                finally:
                    executor.close()
        assert summaries[0]["peer_conformance"] == summaries[1]["peer_conformance"]
        assert summaries[0]["cells"] == summaries[1]["cells"]


class TestEvaluateAndRecord:
    def test_evaluate_peer_group_serial_matches_executor_path(self):
        condition = scenarios.shallow_buffer()
        config = ExperimentConfig(duration_s=4.0, trials=2)
        serial = evaluate_peer_group(
            ["bbr3", "gcc"],
            condition,
            config,
            cache=ResultCache(),
        )
        from repro.exec import Executor

        executor = Executor(jobs=1, cache=ResultCache())
        try:
            pooled = evaluate_peer_group(
                ["bbr3", "gcc"], condition, config, executor=executor
            )
        finally:
            executor.close()
        assert np.array_equal(serial.matrix, pooled.matrix)
        assert np.array_equal(serial.labels, pooled.labels)
        assert serial.summary() == pooled.summary()

    def test_compute_peer_trial_caches(self):
        condition = scenarios.shallow_buffer()
        config = ExperimentConfig(duration_s=4.0, trials=1)
        cache = ResultCache()
        first = compute_peer_trial(
            "linux", "gcc", condition, config, 0, cache=cache
        )
        hits_before = cache.hits
        again = compute_peer_trial(
            "linux", "gcc", condition, config, 0, cache=cache
        )
        assert cache.hits == hits_before + 1
        assert np.array_equal(first, again)

    def test_record_peer_result_cell_count(self, tmp_path):
        condition = scenarios.shallow_buffer()
        config = ExperimentConfig(duration_s=4.0, trials=2)
        result = evaluate_peer_group(
            ["bbr3", "gcc"],
            condition,
            config,
            cache=ResultCache(),
        )
        with ResultStore(str(tmp_path / "store.db")) as store:
            run = store.ensure_run("rec")
            cells = record_peer_result(store, run, result, condition)
            rows = list(store.query(run="rec"))
        # n peers: n*(n-1) pair cells + n aggregate cells.
        assert cells == 2 * 1 + 2
        assert len(rows) == 2 * 2 + 3 * 2  # 2 metrics/pair row, 3/agg row
