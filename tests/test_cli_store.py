"""End-to-end CLI: a tiny campaign with --store, then query/diff it back.

This is the workflow the README documents: measure once into a
warehouse, then answer questions from the file without re-simulating.
"""

import json

import pytest

from repro.cli import main
from repro.store import ResultStore

CAMPAIGN = [
    "regression", "--stack", "xquic", "--cca", "cubic",
    "--duration", "6", "--trials", "2",
]


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    """One tiny campaign, shared read-only by every test in the module."""
    root = tmp_path_factory.mktemp("cli-store")
    path = str(root / "store.db")
    assert main(CAMPAIGN + ["--store", path]) == 0
    return path


def test_campaign_populates_milestone_runs(db):
    with ResultStore(db) as store:
        names = {r.name for r in store.runs()}
        assert {"regression:5.13-stock", "regression:pre-hystart"} <= names
        assert store.counts()["trials"] > 0


def test_store_runs_and_query(db, capsys):
    assert main(["store", "runs", "--db", db]) == 0
    out = capsys.readouterr().out
    assert "regression:5.13-stock" in out and "totals:" in out

    assert main(
        ["store", "query", "--db", db, "--metric", "conf", "--format", "csv"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("run,stack,cca")
    assert len(lines) == 3  # header + one conf row per milestone
    assert all("xquic,cubic" in line for line in lines[1:])


def test_store_query_json_to_file(db, capsys, tmp_path):
    out_path = tmp_path / "q.json"
    assert main(
        ["store", "query", "--db", db, "--metric", "conf",
         "--format", "json", "--out", str(out_path)]
    ) == 0
    rows = json.loads(out_path.read_text())
    assert {row["metric"] for row in rows} == {"conf"}
    assert {row["stack"] for row in rows} == {"xquic"}


def test_store_diff_reports_the_hystart_flip(db, capsys):
    code = main(
        ["store", "diff", "--db", db,
         "--run-a", "regression:5.13-stock",
         "--run-b", "regression:pre-hystart",
         "--fail-on-flips"]
    )
    out = capsys.readouterr().out
    # xquic's cubic lacks HyStart: non-conformant against the stock
    # kernel, conformant against the pre-HyStart milestone.
    assert "FLIP xquic/cubic" in out
    assert code == 1  # --fail-on-flips makes the flip a CI failure

    code = main(
        ["store", "diff", "--db", db,
         "--run-a", "regression:5.13-stock",
         "--run-b", "regression:5.13-stock"]
    )
    assert code == 0
    assert "no differences" in capsys.readouterr().out


def test_store_baseline_workflow(db, capsys):
    assert main(
        ["store", "baseline", "--db", db,
         "--set", "anchor", "--run", "regression:5.13-stock"]
    ) == 0
    assert main(["store", "baseline", "--db", db]) == 0
    assert "anchor: regression:5.13-stock" in capsys.readouterr().out
    code = main(
        ["store", "diff", "--db", db, "--baseline", "anchor",
         "--run-b", "regression:pre-hystart", "--fail-on-flips"]
    )
    assert code == 1


def test_regression_from_store_skips_recompute(db, capsys):
    # No simulation happens here: the matrix is rebuilt from the
    # warehouse, so the verdict table matches the original campaign.
    assert main(["regression", "--from-store", "--store", db]) == 0
    out = capsys.readouterr().out
    assert "xquic" in out and "FLIPS" in out

    assert main(["regression", "--from-store"]) == 2
    assert "requires --store" in capsys.readouterr().err


def test_store_render_writes_svg(db, tmp_path, capsys):
    svg = tmp_path / "heat.svg"
    assert main(
        ["store", "render", "--db", db,
         "--run", "regression:5.13-stock", "--out", str(svg)]
    ) == 0
    assert svg.read_text().startswith("<svg")


def test_store_ingest_manifest_roundtrip(tmp_path, capsys):
    manifest = tmp_path / "run.jsonl"
    db = str(tmp_path / "fresh.db")
    assert main(CAMPAIGN + ["--manifest", str(manifest)]) == 0
    assert main(
        ["store", "ingest", "--db", db,
         "--manifest", str(manifest), "--run", "imported"]
    ) == 0
    out = capsys.readouterr().out
    assert "ingested:" in out
    with ResultStore(db) as store:
        assert store.counts()["events"] > 0
        assert any(r.name.startswith("imported:") for r in store.runs())


def test_store_ingest_with_nothing_to_do_errors(tmp_path, capsys):
    assert main(["store", "ingest", "--db", str(tmp_path / "x.db")]) == 2


def test_diff_requires_a_comparison_anchor(tmp_path, capsys):
    db = str(tmp_path / "empty.db")
    ResultStore(db).close()
    assert main(["store", "diff", "--db", db, "--run-b", "b"]) == 2
    assert "needs --run-a or --baseline" in capsys.readouterr().err


def test_store_gc_dry_run_then_purge(tmp_path, capsys):
    import numpy as np

    db = str(tmp_path / "gc.db")
    with ResultStore(db) as store:
        run = store.ensure_run("kept")
        store.put_trials([("linked", np.arange(4.0))], run=run)
        store.put_trials([("orphan", np.zeros(128))])  # no run links it

    assert main(["store", "gc", "--db", db, "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "would purge 1 of 2 trials" in out
    with ResultStore(db) as store:
        assert store.counts()["trials"] == 2  # dry run touched nothing

    assert main(["store", "gc", "--db", db]) == 0
    out = capsys.readouterr().out
    assert "purged 1 of 2 trials" in out
    assert "vacuumed:" in out
    with ResultStore(db) as store:
        assert store.counts()["trials"] == 1
        assert store.get_trial("linked") is not None


def test_directory_as_warehouse_is_a_typed_error(tmp_path, capsys):
    warehouse = tmp_path / "not-a-db"
    warehouse.mkdir()
    assert main(["store", "runs", "--db", str(warehouse)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{warehouse} is a directory" in err
    assert list(warehouse.iterdir()) == []
