"""Topology campaigns: store recording, dedup, service round trip, viz."""

import numpy as np
import pytest

from repro.exec import Executor
from repro.harness.cache import ResultCache
from repro.service.specs import execute_campaign, parse_campaign_spec
from repro.store import ResultStore, StoreCache
from repro.topo import campaign as topo_campaign
from repro.topo.spec import chain, dumbbell

SPEC = {
    "kind": "topology",
    "topologies": None,  # filled by payload()
    "duration_s": 4.0,
    "trials": 2,
    "seed": 1,
    "run": "topo-camp",
}


def payload():
    doc = dict(SPEC)
    doc["topologies"] = [dumbbell("cubic").canonical(),
                         chain("cubic").canonical()]
    return doc


@pytest.fixture()
def store(tmp_path):
    with ResultStore(str(tmp_path / "store.db")) as s:
        yield s


def run_campaign(spec, store):
    with Executor(jobs=1, cache=StoreCache(store),
                  store=store, store_run=spec.run_name()) as executor:
        return execute_campaign(spec, store, executor)


class TestTrialIdentity:
    def test_seed_and_key_stable(self):
        topo = dumbbell("cubic")
        first = topo_campaign.topo_trial_identity(topo, 4.0, 1, 0)
        second = topo_campaign.topo_trial_identity(topo, 4.0, 1, 0)
        assert first == second
        assert first != topo_campaign.topo_trial_identity(topo, 4.0, 1, 1)
        assert first != topo_campaign.topo_trial_identity(topo, 5.0, 1, 0)

    def test_compute_is_cached_and_deterministic(self):
        cache = ResultCache()
        doc = dumbbell("cubic").canonical()
        first = topo_campaign.compute_topology_matrix(doc, 3.0, 0, 0,
                                                      cache=cache)
        assert cache.misses == 1
        again = topo_campaign.compute_topology_matrix(doc, 3.0, 0, 0,
                                                      cache=cache)
        assert cache.hits == 1
        assert np.array_equal(first, again)
        assert first.shape[0] == len(dumbbell("cubic").flows)


class TestCampaignThroughStore:
    def test_metrics_land_and_are_queryable(self, store):
        spec = parse_campaign_spec(payload())
        result = run_campaign(spec, store)
        assert result["runs"] == ["topo-camp"]
        n_flows = sum(len(t["flows"]) for t in result["topologies"])
        assert result["cells"] == n_flows > 0

        # Per-flow rows: condition string is the topology name, variant
        # is the flow label.
        shares = store.query(run="topo-camp", metric="share")
        assert {r.condition for r in shares} == {
            "dumbbell-cubic", "chain-cubic",
        }
        for row in shares:
            assert row.variant != "default"
            assert 0.0 <= row.value <= 1.0

        # One aggregate row per topology.
        jains = store.query(run="topo-camp", metric="jain")
        assert len(jains) == 2
        assert all(r.stack == "topology" for r in jains)
        assert all(0.0 < r.value <= 1.0 for r in jains)
        utils = store.query(run="topo-camp", metric="utilization")
        assert all(0.0 < r.value <= 1.05 for r in utils)

    def test_identical_resubmission_is_fully_cached(self, store):
        spec = parse_campaign_spec(payload())
        first = run_campaign(spec, store)
        trials_before = store.counts()["trials"]

        cache = StoreCache(store)
        with Executor(jobs=1, cache=cache, store=store,
                      store_run=spec.run_name()) as executor:
            second = execute_campaign(spec, store, executor)
            statuses = [r.status for r in executor.last_records]
        assert first == second
        assert store.counts()["trials"] == trials_before
        assert statuses and all(s == "cached" for s in statuses)

    def test_serial_path_equals_executor_path(self, store):
        spec = parse_campaign_spec(payload())
        direct = execute_campaign(spec, None, None)
        via_store = run_campaign(spec, store)
        assert direct["topologies"] == via_store["topologies"]

    def test_parallel_jobs_bit_identical(self, store, tmp_path):
        spec = parse_campaign_spec(payload())
        serial = run_campaign(spec, store)
        with ResultStore(str(tmp_path / "other.db")) as other:
            with Executor(jobs=2, cache=StoreCache(other),
                          store=other, store_run=spec.run_name()) as executor:
                parallel = execute_campaign(spec, other, executor)
        assert serial["topologies"] == parallel["topologies"]


class TestFairnessPanel:
    def test_matrix_and_figure(self, store):
        from repro.viz import fairness_panel_figure, stored_fairness_matrix

        spec = parse_campaign_spec(payload())
        run_campaign(spec, store)
        rows, cols, values = stored_fairness_matrix(store, "topo-camp")
        assert cols == ["chain-cubic", "dumbbell-cubic"]
        assert values.shape == (len(rows), 2)
        # Shares of each topology sum to ~1 over its flows.
        for j in range(values.shape[1]):
            col = values[:, j]
            assert np.nansum(col) == pytest.approx(1.0, abs=1e-6)
        svg = fairness_panel_figure(store, "topo-camp").to_svg()
        assert svg.lstrip().startswith("<")
        assert "J=" in svg  # per-topology Jain's index in column labels

    def test_missing_run_raises(self, store):
        with pytest.raises(ValueError, match="per-flow"):
            from repro.viz import stored_fairness_matrix

            store.ensure_run("empty")
            stored_fairness_matrix(store, "empty")


class TestServiceRoundTrip:
    def test_http_submission_and_cached_resubmission(self, tmp_path):
        from repro.service import ServiceApp, ServiceClient

        app = ServiceApp(str(tmp_path / "svc.db"), workers=1)
        app.start()
        try:
            client = ServiceClient(app.url, timeout_s=30.0)
            doc = payload()
            accepted = client.submit(doc)
            final = client.wait(accepted["id"], timeout_s=600)
            assert final["state"] == "done"
            rows = client.metrics("topo-camp")
            by_metric = {}
            for row in rows:
                by_metric.setdefault(row["metric"], []).append(row)
            assert {"dumbbell-cubic", "chain-cubic"} == {
                r["condition"] for r in by_metric["share"]
            }
            assert len(by_metric["jain"]) == 2

            # Identical resubmission: served entirely from the warehouse.
            again = client.submit(doc)
            refinal = client.wait(again["id"], timeout_s=600)
            assert refinal["state"] == "done"
            statuses = refinal["trial_statuses"]
            assert statuses.get("ok", 0) == 0
            assert statuses.get("cached", 0) == refinal["progress"]["total"]
            assert refinal["progress"]["total"] > 0
        finally:
            app.stop(drain=False)
