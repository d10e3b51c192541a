"""The fairness, inter_cca, sweep and fixes campaign kinds.

They are what the CLI's ``fairness``, ``intercca``, ``sweep`` and
``fixes`` commands submit, so a spec run by the service scheduler must
record exactly what the command records.
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.exec import Executor
from repro.harness import scenarios
from repro.harness.cache import ResultCache
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.service import Scheduler, parse_campaign_spec
from repro.service.scheduler import DONE, TERMINAL_STATES, run_campaign
from repro.service.specs import SpecError
from repro.store import ResultStore
from repro.topo import dumbbell

TINY = {"duration_s": 2, "trials": 1}
TINY_FLAGS = ["--duration", "2", "--trials", "1"]


class TestSpecs:
    @pytest.mark.parametrize(
        "payload, condition",
        [
            ({"kind": "fairness", "ccas": ["reno"]},
             scenarios.fairness_condition()),
            ({"kind": "inter_cca", "ccas": ["bbr", "cubic"]},
             scenarios.fairness_condition()),
            ({"kind": "sweep"}, scenarios.shallow_buffer()),
            ({"kind": "fixes"}, scenarios.shallow_buffer()),
        ],
    )
    def test_defaults_and_canonical_round_trip(self, payload, condition):
        spec = parse_campaign_spec(payload)
        assert spec.resolved_conditions() == [condition]
        assert parse_campaign_spec(spec.canonical()) == spec

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({"kind": "fairness"}, "exactly 1"),
            ({"kind": "inter_cca", "ccas": ["bbr"]}, "exactly 2"),
            ({"kind": "fairness", "ccas": ["reno"], "stacks": ["quiche"]},
             "must be empty"),
            ({"kind": "sweep", "ccas": ["bbr"]}, "must be empty"),
            ({"kind": "fixes", "peers": ["cubic"]}, "only valid"),
            ({"kind": "matrix", "host_stack": "linux"}, "must be empty"),
            ({"kind": "sweep", "conditions": [{}, {"buffer_bdp": 5}]},
             "one condition"),
            ({"kind": "regression", "conditions": [{}, {"buffer_bdp": 5}]},
             "one condition"),
        ],
    )
    def test_fields_a_kind_ignores_are_rejected(self, payload, fragment):
        with pytest.raises(SpecError) as err:
            parse_campaign_spec(payload)
        assert fragment in str(err.value)

    def test_invalid_cli_spec_is_a_usage_error(self, capsys):
        # msquic implements no Reno: the spec selects no implementations.
        argv = ["regression", "--stack", "msquic", "--cca", "reno"]
        assert main(argv) == 1
        assert "no implementations" in capsys.readouterr().err


def _stored(db: str):
    with ResultStore(db) as store:
        rows = [dataclasses.astuple(r) for r in store.query()]
        payloads = {
            key: store.get_trial(key, strict=True).tobytes()
            for key in store.trial_keys()
        }
    return rows, payloads


def _scheduled(db: str, payload: dict):
    """Run one spec through a service scheduler; its finished job."""
    scheduler = Scheduler(db, workers=1)
    try:
        job = scheduler.submit(parse_campaign_spec(payload))
        deadline = time.monotonic() + 300.0
        while job.state not in TERMINAL_STATES and time.monotonic() < deadline:
            time.sleep(0.05)
    finally:
        scheduler.shutdown(drain=True)
    assert job.state == DONE, job.error
    return job


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["fairness", "--cca", "reno", "--bandwidth", "5"],
         {"kind": "fairness", "ccas": ["reno"],
          "conditions": [{"bandwidth_mbps": 5, "rtt_ms": 50}],
          "run": "fairness:reno@5mbps-50ms-1bdp"}),
        (["intercca", "--bandwidth", "2"],
         {"kind": "inter_cca", "ccas": ["bbr", "cubic"],
          "conditions": [{"bandwidth_mbps": 2, "rtt_ms": 50}],
          "run": "intercca:bbr-cubic@2mbps-50ms-1bdp"}),
        # A non-default condition: the sweep's rows follow the flags.
        (["sweep", "--bandwidth", "10", "--rtt", "20", "--buffer", "2"],
         {"kind": "sweep",
          "conditions": [{"bandwidth_mbps": 10, "rtt_ms": 20, "buffer_bdp": 2}],
          "run": "sweep:cwnd_gain"}),
    ],
    ids=["fairness", "inter_cca", "sweep"],
)
def test_scheduled_spec_writes_the_cli_rows(tmp_path, argv, payload):
    cli_db = str(tmp_path / "cli.db")
    assert main(argv + TINY_FLAGS + ["--store", cli_db]) == 0
    _scheduled(str(tmp_path / "service.db"), {**payload, **TINY})
    rows, payloads = _stored(cli_db)
    assert rows and payloads
    assert (rows, payloads) == _stored(str(tmp_path / "service.db"))


def test_sweep_follows_the_condition_flags(tmp_path):
    from repro.analysis.sweeps import cwnd_gain_sweep

    db = str(tmp_path / "cli.db")
    argv = ["sweep", "--bandwidth", "10", "--rtt", "20", "--buffer", "2"]
    assert main(argv + TINY_FLAGS + ["--store", db]) == 0
    # Int spellings name the same trials as the spec parser's floats.
    condition = NetworkCondition(bandwidth_mbps=10, rtt_ms=20, buffer_bdp=2)
    points = cwnd_gain_sweep(
        condition=condition,
        config=ExperimentConfig(duration_s=2, trials=1),
        executor=Executor(cache=ResultCache()),
    )
    with ResultStore(db) as store:
        rows = store.query(metric="conf")
    assert {(r.bandwidth_mbps, r.rtt_ms, r.buffer_bdp) for r in rows} == {
        (10.0, 20.0, 2.0)
    }
    assert {r.variant: r.value for r in rows} == {
        f"cwnd_gain={p.cwnd_gain:g}": p.conformance for p in points
    }


@pytest.mark.parametrize(
    "payload, note",
    [
        ({"kind": "fairness", "ccas": ["reno"],
          "conditions": [{"bandwidth_mbps": 2, "rtt_ms": 50}], "run": "fair"},
         "bandwidth-share matrix"),
        ({"kind": "sweep", "conditions": [{"bandwidth_mbps": 2}],
          "run": "gain"},
         "Fig. 5 cwnd-gain sweep"),
    ],
    ids=["fairness", "sweep"],
)
def test_store_run_keeps_the_harness_note(tmp_path, payload, note):
    # The executor's store sink creates the run first, with no note; the
    # harness's note must still land on it.
    db = str(tmp_path / "notes.db")
    run_campaign(parse_campaign_spec({**payload, **TINY}), db)
    with ResultStore(db) as store:
        assert store.run(payload["run"]).note == note


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "topology", "topologies": [dumbbell("cubic").canonical()],
         "run": "topo-cfg"},
        {"kind": "peer_conformance", "peers": ["cubic", "reno"],
         "conditions": [{"bandwidth_mbps": 2, "rtt_ms": 20}], "run": "peer-cfg"},
    ],
    ids=["topology", "peer_conformance"],
)
def test_store_run_keeps_the_campaign_config(tmp_path, payload):
    # The executor's store sink may create the run first, with config
    # {}; the campaign's canonical spec must still land on it.
    db = str(tmp_path / "config.db")
    spec = parse_campaign_spec({**payload, **TINY})
    run_campaign(spec, db)
    with ResultStore(db) as store:
        assert store.run(payload["run"]).config == spec.canonical()


def test_store_backed_campaign_reads_and_writes_each_trial_once(
    tmp_path, monkeypatch
):
    calls = {"get_trial": [], "put_trial": []}
    for name in calls:
        original = getattr(ResultStore, name)

        def counting(self, key, *args, _name=name, _original=original, **kw):
            calls[_name].append(key)
            return _original(self, key, *args, **kw)

        monkeypatch.setattr(ResultStore, name, counting)
    spec = parse_campaign_spec(
        {"kind": "conformance", "stacks": ["quiche"], "ccas": ["cubic"],
         "conditions": [{"bandwidth_mbps": 2, "rtt_ms": 20}],
         "duration_s": 2, "trials": 2, "run": "once"}
    )
    summary = run_campaign(spec, str(tmp_path / "once.db"))
    assert summary["exec"]["ok"] == 4
    for keys in calls.values():
        assert len(keys) == len(set(keys)) == 4
    assert set(calls["get_trial"]) == set(calls["put_trial"])


def test_scheduled_fixes_store_the_harness_trials(tmp_path):
    from repro.analysis.fixes import FIXES, evaluate_all_fixes

    job = _scheduled(str(tmp_path / "service.db"), {"kind": "fixes", **TINY})
    assert job.cells == 2 * len(FIXES)
    with Executor(cache=ResultCache(), store=str(tmp_path / "direct.db")) as ex:
        evaluate_all_fixes(config=ExperimentConfig(duration_s=2.0, trials=1),
                           executor=ex)
    assert (_stored(str(tmp_path / "service.db"))[1]
            == _stored(str(tmp_path / "direct.db"))[1])


STARTUP_PROBE = """
import sys
import repro.exec.pool
workers = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import numpy as np
from repro.core import envelope
from repro.core.envelope import EnvelopeConfig, build_envelope
from repro.service import ServiceApp

app = ServiceApp(sys.argv[1])
app.start()
matches = []
match_clusters = envelope.match_clusters
envelope.match_clusters = lambda *a: matches.append(1) or match_clusters(*a)
rng = np.random.default_rng(0)
trials = [np.vstack([rng.normal(c, (2.0, 0.4), size=(40, 2))
                     for c in ((20.0, 2.0), (60.0, 8.0))]) for _ in range(3)]
k = build_envelope(trials, EnvelopeConfig()).k
app.stop()
print(workers, k, len(matches) > 0,
      sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_service_starts_and_matches_clusters_without_scipy(tmp_path):
    # Neither the executor's workers (``repro.exec.pool``) nor a started
    # service that builds a two-cluster envelope imports SciPy.
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(tmp_path / "service.db")],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), check=True,
    )
    assert out.stdout.strip() == "[] 2 True []"
