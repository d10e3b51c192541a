"""Incremental cache + the serial pass: warm runs, invalidation, one
parse per file on a cold run, and the CLI surface (SARIF, graph dumps,
unknown-rule listing)."""

import json
import textwrap

from repro.cli import main
from repro.lint import Finding, LintConfig, lint_paths, render_findings
from repro.lint.cache import AnalysisCache, compute_signature
from repro.lint.rules import all_rules

BAD = """
    import time

    def stamp():
        return time.time()
"""

CLEAN = """
    def stamp(clock):
        return clock()
"""


def make_project(tmp_path, files):
    root = tmp_path / "proj"
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body).lstrip("\n"))
    return LintConfig.for_root(root)


def run_lint(config, **kwargs):
    return lint_paths(config=config, **kwargs)


def rows(report):
    return [f.row() for f in report.findings]


# ------------------------------------------------------------------- cache


def test_warm_run_hits_cache_with_identical_findings(tmp_path):
    config = make_project(
        tmp_path,
        {"src/repro/netsim/a.py": BAD, "src/repro/b.py": CLEAN},
    )
    cold = run_lint(config)
    assert cold.cache_hits == 0 and cold.cache_misses == 2
    assert config.cache_path().exists()
    warm = run_lint(config)
    assert warm.cache_hits == 2 and warm.cache_misses == 0
    assert rows(warm) == rows(cold)
    assert [f.row() for f in warm.suppressed] == [
        f.row() for f in cold.suppressed
    ]


def test_editing_one_file_invalidates_only_it(tmp_path):
    config = make_project(
        tmp_path,
        {"src/repro/netsim/a.py": BAD, "src/repro/b.py": CLEAN},
    )
    run_lint(config)
    path = config.root / "src/repro/b.py"
    path.write_text(path.read_text() + "\n\nX = 1\n")
    warm = run_lint(config)
    assert warm.cache_hits == 1 and warm.cache_misses == 1


def test_cache_disabled_never_writes(tmp_path):
    config = make_project(tmp_path, {"src/repro/a.py": CLEAN})
    report = run_lint(config, use_cache=False)
    assert report.cache_hits == 0
    assert not config.cache_path().exists()


def test_rule_version_bump_invalidates_cache(tmp_path):
    """The signature covers (id, version, scope) of every rule: bumping
    a version must discard the whole cache, not serve stale findings."""
    config = make_project(tmp_path, {"src/repro/netsim/a.py": BAD})
    rules = all_rules()
    sig = compute_signature(config, rules)
    bumped = list(rules)

    class Bumped(type(bumped[0])):
        version = bumped[0].version + 1

    bumped[0] = Bumped()
    assert compute_signature(config, bumped) != sig

    run_lint(config)
    cache = AnalysisCache.load(config.cache_path(), "other-signature")
    assert cache.entries == {}


def test_cache_survives_corrupt_file(tmp_path):
    config = make_project(tmp_path, {"src/repro/a.py": CLEAN})
    run_lint(config)
    config.cache_path().write_text("{not json")
    report = run_lint(config)
    assert report.cache_hits == 0 and report.ok


def test_stale_cache_entries_pruned(tmp_path):
    config = make_project(
        tmp_path,
        {"src/repro/a.py": CLEAN, "src/repro/b.py": CLEAN},
    )
    run_lint(config)
    (config.root / "src/repro/b.py").unlink()
    run_lint(config)
    data = json.loads(config.cache_path().read_text())
    assert sorted(data["files"]) == ["src/repro/a.py"]


# ------------------------------------------------------------------ parsing


def test_cold_run_parses_each_file_once(tmp_path, monkeypatch):
    """The engine hashes the text it read and analyses that same text:
    one read and one ``ast.parse`` per file, so a cache entry's analysis
    always matches its content hash."""
    import ast
    import pathlib

    original_parse = ast.parse
    original_read = pathlib.Path.read_text
    parsed, read = [], []

    def counting_parse(source, *args, **kwargs):
        parsed.append(kwargs.get("filename"))
        return original_parse(source, *args, **kwargs)

    def counting_read(path, *args, **kwargs):
        if path.suffix == ".py":
            read.append(str(path))
        return original_read(path, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(pathlib.Path, "read_text", counting_read)
    files = {
        f"src/repro/netsim/m{i}.py": BAD if i % 3 == 0 else CLEAN
        for i in range(6)
    }
    config = make_project(tmp_path, files)
    cold = run_lint(config)
    assert cold.cache_misses == 6
    expected = sorted(str(config.root / rel) for rel in files)
    assert sorted(parsed) == expected
    assert sorted(read) == expected
    parsed.clear()
    run_lint(config)
    assert parsed == []  # warm: everything replays from the cache


# --------------------------------------------------------------------- CLI


def test_unknown_rule_error_lists_known_rules(tmp_path, capsys):
    config = make_project(tmp_path, {"src/repro/a.py": CLEAN})
    code = main(
        [
            "lint",
            str(config.src),
            "--root",
            str(config.root),
            "--rules",
            "no-such-rule",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown rule id(s): no-such-rule" in err
    # The known ids are enumerated so the user can pick the right one.
    assert "wall-clock" in err
    assert "lock-order-cycle" in err


def test_sarif_emitted_even_when_clean(tmp_path, capsys):
    config = make_project(tmp_path, {"src/repro/a.py": CLEAN})
    code = main(
        [
            "lint",
            str(config.src),
            "--root",
            str(config.root),
            "--format",
            "sarif",
            "--no-cache",
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"] == []


def test_sarif_findings_have_locations(tmp_path, capsys):
    config = make_project(tmp_path, {"src/repro/netsim/a.py": BAD})
    code = main(
        [
            "lint",
            str(config.src),
            "--root",
            str(config.root),
            "--format",
            "sarif",
            "--no-cache",
        ]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    results = doc["runs"][0]["results"]
    assert results
    loc = results[0]["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "src/repro/netsim/a.py"
    assert loc["region"]["startLine"] > 0
    driver = doc["runs"][0]["tool"]["driver"]
    assert {r["id"] for r in driver["rules"]} == {
        r["ruleId"] for r in results
    }


def test_sarif_renderer_unit():
    doc = json.loads(
        render_findings(
            [
                Finding(
                    rule="wall-clock",
                    path="src/repro/x.py",
                    line=3,
                    message="m",
                    snippet="time.time()",
                )
            ],
            "sarif",
        )
    )
    result = doc["runs"][0]["results"][0]
    assert result["ruleId"] == "wall-clock"
    assert result["level"] == "error"


def test_dump_graph_cli(tmp_path, capsys):
    config = make_project(
        tmp_path,
        {
            "src/repro/a.py": """
                import threading

                from repro.b import helper

                LOCK = threading.Lock()

                def go():
                    with LOCK:
                        helper()
            """,
            "src/repro/b.py": """
                def helper():
                    return 1
            """,
        },
    )
    for what, needle in (
        ("imports", "repro.a -> repro.b"),
        ("calls", "repro.a.go:9 -> repro.b.helper"),
        ("locks", "lock repro.a.LOCK [Lock]"),
    ):
        code = main(
            [
                "lint",
                str(config.src),
                "--root",
                str(config.root),
                "--dump-graph",
                what,
                "--no-cache",
            ]
        )
        assert code == 0
        assert needle in capsys.readouterr().out
