"""Ingestion paths: JSONL manifests, live results and the executor's
store sink."""

import json

import numpy as np
import pytest

from repro.exec import Executor, Job
from repro.exec.telemetry import RunManifest
from repro.harness.cache import ResultCache
from repro.store import (
    ResultStore,
    ingest_manifest,
    ingest_measurements,
)


@pytest.fixture
def store(tmp_path):
    with ResultStore(tmp_path / "ingest.db") as s:
        yield s


def _double(x):
    return np.array([2.0 * x])


class TestManifestIngest:
    def _write_manifest(self, path, campaigns=("alpha",), torn=False):
        with RunManifest(path) as manifest:
            for campaign in campaigns:
                manifest.campaign_start(campaign, jobs=2, workers=1, mode="serial")
                from repro.exec.telemetry import JobRecord

                manifest.job(campaign, JobRecord(index=0, status="ok", wall_s=0.1))
                manifest.campaign_end(campaign, [], wall_s=0.2, cache={})
        if torn:
            with open(path, "a") as handle:
                handle.write('{"event": "job", "campaign": "alp')

    def test_manifest_becomes_runs_and_events(self, store, tmp_path):
        path = tmp_path / "runs.jsonl"
        self._write_manifest(path, campaigns=("alpha", "beta"))
        report = ingest_manifest(store, path, run_prefix="ci")
        assert report.runs == 2 and report.events == 6
        assert report.skipped_lines == 0
        assert {r.name for r in store.runs()} == {"ci:alpha", "ci:beta"}
        events = store.events(campaign="alpha")
        assert [e["event"] for e in events] == [
            "campaign_start", "job", "campaign_end",
        ]
        assert events[0]["mode"] == "serial"

    def test_torn_final_line_is_skipped_not_fatal(self, store, tmp_path):
        path = tmp_path / "crashed.jsonl"
        self._write_manifest(path, torn=True)
        report = ingest_manifest(store, path)
        assert report.skipped_lines == 1 and report.events == 3

    def test_reingesting_gets_fresh_run_names(self, store, tmp_path):
        path = tmp_path / "runs.jsonl"
        self._write_manifest(path)
        ingest_manifest(store, path, run_prefix="p")
        ingest_manifest(store, path, run_prefix="p")
        names = {r.name for r in store.runs()}
        assert names == {"p:alpha", "p:alpha#2"}

    def test_default_prefix_is_file_stem(self, store, tmp_path):
        path = tmp_path / "nightly.jsonl"
        self._write_manifest(path)
        ingest_manifest(store, path)
        assert store.has_run("nightly:alpha")


class TestMeasurementIngest:
    def test_live_measurements_land_under_run(
        self, store, small_condition, fresh_executor
    ):
        from repro.harness.config import ExperimentConfig
        from repro.harness.conformance import measure_conformance

        quick = ExperimentConfig(duration_s=4.0, trials=1)
        measurement = measure_conformance(
            "quicgo", "reno", small_condition, quick, executor=fresh_executor
        )
        report = ingest_measurements(store, "imported", [measurement])
        assert report.measurements == 1
        (value,) = [
            r.value for r in store.query(run="imported", metric="conf")
        ]
        assert value == measurement.result.conformance


class TestExecutorStoreSink:
    def test_campaign_writes_events_and_trials(self, store):
        ex = Executor(jobs=1, cache=ResultCache(), store=store)
        jobs = [Job(fn=_double, args=(x,), key=f"k{x}") for x in range(3)]
        ex.run(jobs, campaign="demo")
        ex.close()
        assert store.has_run("demo")
        events = store.events(campaign="demo")
        assert events[0]["event"] == "campaign_start"
        assert events[-1]["event"] == "campaign_end"
        assert [e["status"] for e in events if e["event"] == "job"] == ["ok"] * 3
        assert store.trial_keys("demo") == ["k0", "k1", "k2"]
        assert np.array_equal(store.get_trial("k1"), np.array([2.0]))

    def test_store_run_pins_all_campaigns_to_one_run(self, store):
        ex = Executor(
            jobs=1, cache=ResultCache(),
            store=store, store_run="pinned",
        )
        ex.run([Job(fn=_double, args=(1,), key="a")], campaign="one")
        ex.run([Job(fn=_double, args=(2,), key="b")], campaign="two")
        ex.close()
        assert {r.name for r in store.runs()} == {"pinned"}
        assert store.trial_keys("pinned") == ["a", "b"]

    def test_executor_owns_store_opened_from_path(self, tmp_path):
        path = tmp_path / "owned.db"
        with Executor(jobs=1, cache=ResultCache(), store=path) as ex:
            ex.run([Job(fn=_double, args=(3,), key="k")], campaign="c")
        with ResultStore(path) as reopened:
            assert reopened.has_trial("k")
