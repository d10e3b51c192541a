"""repro.store warehouse: round-trip fidelity, dedupe, schema, upserts."""

import json
import sqlite3

import numpy as np
import pytest

from repro.harness.config import NetworkCondition
from repro.store import (
    MEASUREMENT_METRICS,
    QUERY_HEADERS,
    ResultStore,
    SchemaError,
    STORE_SCHEMA_VERSION,
    StoreError,
)
from repro.store.schema import schema_version


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "store.db") as s:
        yield s


COND = NetworkCondition(bandwidth_mbps=20.0, rtt_ms=10.0, buffer_bdp=1.0)


class TestTrials:
    def test_round_trip_is_bit_identical(self, store):
        rng = np.random.default_rng(7)
        payload = rng.standard_normal((17, 2))
        store.put_trial("k1", payload, seed=123, label="demo")
        loaded = store.get_trial("k1")
        assert loaded.dtype == payload.dtype and loaded.shape == payload.shape
        assert loaded.tobytes() == payload.tobytes()

    def test_round_trip_preserves_dtype_and_noncontiguous_input(self, store):
        payload = np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2]
        store.put_trial("strided", payload)
        loaded = store.get_trial("strided")
        assert loaded.dtype == np.float32
        assert np.array_equal(loaded, payload)

    def test_missing_key_returns_none(self, store):
        assert store.get_trial("nope") is None
        assert not store.has_trial("nope")

    def test_content_addressed_dedupe(self, store):
        payload = np.ones(5)
        assert store.put_trial("k", payload) is True
        assert store.put_trial("k", payload) is False
        assert store.counts()["trials"] == 1

    def test_batch_put_counts_only_new_keys(self, store):
        items = [(f"k{i}", np.full(3, float(i))) for i in range(4)]
        assert store.put_trials(items) == 4
        assert store.put_trials(items + [("k9", np.zeros(1))]) == 1

    def test_batch_put_ignores_a_concurrent_writers_commit(
        self, store, tmp_path
    ):
        """A second writer committing while the batch runs is not counted:
        only the batch's own new keys are."""
        store.put_trial("stored", np.zeros(2))
        fired = []

        def other_writer_commits(statement):
            if statement.lstrip().upper().startswith("BEGIN") and not fired:
                with ResultStore(tmp_path / "store.db") as other:
                    fired.append(other.put_trial("intruder", np.ones(2)))

        store._conn.set_trace_callback(other_writer_commits)
        try:
            new = store.put_trials(
                [
                    ("new1", np.full(2, 1.0)),
                    ("new1", np.full(2, 1.0)),  # in-batch duplicate
                    ("stored", np.zeros(2)),  # stored already
                    ("new2", np.full(2, 2.0)),
                ]
            )
        finally:
            store._conn.set_trace_callback(None)
        assert fired == [True]
        assert new == 2
        assert store.trial_keys() == ["intruder", "new1", "new2", "stored"]

    def test_run_links_trials(self, store):
        run = store.ensure_run("campaign")
        store.put_trial("a", np.zeros(2), run=run)
        store.put_trial("b", np.ones(2), run=run)
        store.put_trial("c", np.ones(2))
        assert store.trial_keys(run) == ["a", "b"]
        assert store.trial_keys() == ["a", "b", "c"]

    def test_corrupt_payload_raises_store_error_in_strict_mode(
        self, store, tmp_path
    ):
        store.put_trial("bad", np.zeros(4))
        raw = sqlite3.connect(str(tmp_path / "store.db"))
        with raw:
            raw.execute("UPDATE trials SET shape = '[9999]' WHERE key = 'bad'")
        raw.close()
        with pytest.raises(StoreError, match="corrupt"):
            ResultStore(tmp_path / "store.db").get_trial("bad", strict=True)

    def test_corrupt_payload_quarantined_by_default(self, store, tmp_path):
        store.put_trial("bad", np.zeros(4))
        store.put_trial("good", np.ones(3))
        raw = sqlite3.connect(str(tmp_path / "store.db"))
        with raw:
            raw.execute("UPDATE trials SET shape = '[9999]' WHERE key = 'bad'")
        raw.close()
        reopened = ResultStore(tmp_path / "store.db")
        with pytest.warns(UserWarning, match="quarantined"):
            assert reopened.get_trial("bad") is None
        # The healthy remainder still serves, the bad row is gone, and
        # the quarantine is journalled.
        assert reopened.get_trial("good") is not None
        assert not reopened.has_trial("bad")
        events = [e for e in reopened.events() if e["event"] == "trial_quarantined"]
        assert events and events[0]["key"] == "bad"
        # Content-addressed re-insert heals the hole.
        assert reopened.put_trial("bad", np.zeros(4))
        assert reopened.get_trial("bad") is not None


class TestRunsAndMetrics:
    def test_ensure_run_is_get_or_create(self, store):
        a = store.ensure_run("r", note="first")
        b = store.ensure_run("r", note="ignored on re-create")
        assert a.id == b.id and b.note == "first"
        assert store.run(a.id).name == "r" and store.run("r").id == a.id

    def test_unknown_run_raises(self, store):
        with pytest.raises(StoreError, match="unknown run"):
            store.run("ghost")

    def test_record_metrics_upserts_in_place(self, store):
        run = store.ensure_run("r")
        first = store.record_metrics(
            run, stack="quiche", cca="cubic", metrics={"conf": 0.25},
            condition=COND,
        )
        second = store.record_metrics(
            run, stack="quiche", cca="cubic", metrics={"conf": 0.75},
            condition=COND,
        )
        assert first == second
        assert store.counts()["measurements"] == 1
        (row,) = store.query(run=run, metric="conf")
        assert row.value == 0.75

    def test_condition_less_measurements_do_not_duplicate(self, store):
        # SQLite UNIQUE treats NULLs as distinct; the select-first upsert
        # must still collapse repeated condition-less records.
        run = store.ensure_run("r")
        a = store.record_metrics(run, stack="s", cca="c", metrics={"x": 1.0})
        b = store.record_metrics(run, stack="s", cca="c", metrics={"x": 2.0})
        assert a == b and store.counts()["measurements"] == 1

    def test_query_filters_and_order(self, store):
        run = store.ensure_run("r")
        for stack in ("quiche", "mvfst"):
            for cca in ("cubic", "bbr"):
                store.record_metrics(
                    run, stack=stack, cca=cca,
                    metrics={"conf": 0.5, "conf_t": 0.9}, condition=COND,
                )
        rows = store.query(run="r", stack="quiche", metric="conf")
        assert [(r.stack, r.cca, r.metric) for r in rows] == [
            ("quiche", "bbr", "conf"), ("quiche", "cubic", "conf"),
        ]
        assert store.query(condition="nope") == []
        table = store.metric_table("r", "conf_t")
        assert table[("mvfst", "bbr", "default", COND.describe())] == 0.9

    def test_exports_share_header_order(self, store):
        run = store.ensure_run("r")
        store.record_metrics(
            run, stack="s", cca="c", metrics={"conf": 0.125}, condition=COND
        )
        rows = store.query(run=run)
        csv_text = ResultStore.export_csv(rows)
        assert csv_text.splitlines()[0] == ",".join(QUERY_HEADERS)
        assert "0.125" in csv_text
        import json

        (obj,) = json.loads(ResultStore.export_json(rows))
        assert set(obj) == set(QUERY_HEADERS) and obj["value"] == 0.125

    def test_baselines_point_at_runs(self, store):
        run = store.ensure_run("release-1")
        store.set_baseline("anchor", run)
        assert store.baseline_run("anchor").name == "release-1"
        other = store.ensure_run("release-2")
        store.set_baseline("anchor", other)
        assert store.baselines() == {"anchor": "release-2"}
        assert store.baseline_run("missing") is None

    def test_measurement_metric_names_are_stable(self, store):
        # Downstream queries (diff, regression_matrix_from_store, docs)
        # rely on these exact metric names.
        assert MEASUREMENT_METRICS == (
            "conf", "conf_t", "conf_old", "delta_tput_mbps",
            "delta_delay_ms", "k_test", "k_ref",
        )


class TestSchema:
    def test_fresh_store_is_at_current_version(self, store):
        assert schema_version(store._conn) == STORE_SCHEMA_VERSION
        assert store.integrity_ok()

    def test_reopening_existing_file_keeps_data(self, tmp_path):
        path = tmp_path / "w.db"
        with ResultStore(path) as s:
            s.put_trial("k", np.arange(3.0))
        with ResultStore(path) as s:
            assert np.array_equal(s.get_trial("k"), np.arange(3.0))

    def test_file_from_a_newer_version_is_rejected(self, tmp_path):
        path = tmp_path / "future.db"
        with ResultStore(path) as s:
            s.put_trial("k", np.zeros(1))
        raw = sqlite3.connect(str(path))
        with raw:
            raw.execute(f"PRAGMA user_version = {STORE_SCHEMA_VERSION + 1}")
        raw.close()
        with pytest.raises(SchemaError, match="newer"):
            ResultStore(path)

    def test_empty_legacy_file_migrates_forward(self, tmp_path):
        # A version-0 file (as a pre-store SQLite file would be) goes
        # through the migration ladder on open.
        path = tmp_path / "legacy.db"
        sqlite3.connect(str(path)).close()
        with ResultStore(path) as s:
            assert schema_version(s._conn) == STORE_SCHEMA_VERSION
            s.put_trial("k", np.zeros(2))
            assert s.integrity_ok()


class TestStoreCache:
    def test_write_through_and_read_through(self, store):
        from repro.store import StoreCache

        cache = StoreCache(store)
        value = np.arange(6.0).reshape(2, 3)
        cache.put("k", value)
        assert store.has_trial("k") and cache.store_puts == 1

        # A cold cache on the same store serves the trial from the
        # warehouse and promotes it (second get is a memory hit, not a store hit).
        cold = StoreCache(store)
        assert np.array_equal(cold.get("k"), value)
        assert cold.get("k") is not None
        counters = cold.counters()
        assert counters["store_hits"] == 1
        assert counters["hits"] == 2 and counters["misses"] == 0

    def test_miss_everywhere_counts_as_miss(self, store):
        from repro.store import StoreCache

        cache = StoreCache(store)
        assert cache.get("absent") is None
        assert cache.counters()["misses"] == 1

    def test_owned_store_from_path(self, tmp_path):
        from repro.store import StoreCache

        cache = StoreCache(tmp_path / "owned.db")
        cache.put("k", np.ones(3))
        cache.close()
        with ResultStore(tmp_path / "owned.db") as reopened:
            assert reopened.has_trial("k")


class TestGc:
    def test_gc_leaves_sideline_spill_untouched(self, store):
        """A sideline spill next to the warehouse is recovery input:
        gc must never unlink or rewrite it, and it must stay replayable
        afterwards."""
        from repro.store import ingest_sideline

        run = store.ensure_run("r1")
        for i in range(4):
            store.put_trial(f"trial-{i}", np.full((4,), float(i)), run=run)
        spill = store.path.parent / f"{store.path.name}.sideline.jsonl"
        record = {
            "kind": "trial",
            "key": "spilled-1",
            "dtype": "<f8",
            "shape": [2],
            "data": "AAAAAAAA8D8AAAAAAAAAQA==",  # [1.0, 2.0]
        }
        spill.write_text(json.dumps(record) + "\n")
        before = spill.read_bytes()
        store.gc()
        assert spill.read_bytes() == before
        report = ingest_sideline(store, spill)
        assert report.trials == 1
        assert store.get_trial("spilled-1").tolist() == [1.0, 2.0]


class TestEvents:
    def test_events_round_trip_payloads(self, store):
        run = store.ensure_run("r")
        store.record_event(
            "job", campaign="c", payload={"status": "ok", "wall_s": 0.5},
            run=run,
        )
        store.record_event("campaign_end", campaign="c")
        events = store.events(campaign="c")
        assert [e["event"] for e in events] == ["job", "campaign_end"]
        assert events[0]["status"] == "ok"
