"""The one-pass lint run: one read, parse, tree walk and import map per
file, and the CLI surface (SARIF, graph dumps, unknown-rule listing)."""

import json
import textwrap

from repro.cli import main
from repro.lint import Finding, LintConfig, lint_paths, render_findings

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


# ------------------------------------------------------------------ parsing


def test_cold_run_parses_each_file_once(tmp_path, monkeypatch):
    """Every per-file job happens once: one read, one ``ast.parse``, one
    full-tree ``ast.walk`` and one import map per file; rules and the
    summary extractor share the parsed module's node list and imports."""
    import ast
    import pathlib
    import sys

    original_parse = ast.parse
    original_walk = ast.walk
    original_read = pathlib.Path.read_text
    parsed, walked, read, mapped = [], [], [], []

    def counting_parse(source, *args, **kwargs):
        parsed.append(kwargs.get("filename"))
        return original_parse(source, *args, **kwargs)

    def counting_walk(node):
        if isinstance(node, ast.Module):
            walked.append(node)
        return original_walk(node)

    def counting_read(path, *args, **kwargs):
        if path.suffix == ".py":
            read.append(str(path))
        return original_read(path, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(ast, "walk", counting_walk)
    monkeypatch.setattr(pathlib.Path, "read_text", counting_read)
    for name, module in list(sys.modules.items()):
        original_map = getattr(module, "import_map", None)
        if name.startswith("repro.lint") and callable(original_map):

            def counting_map(*args, _original=original_map, **kwargs):
                mapped.append(args)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "import_map", counting_map)
    files = {
        f"src/repro/netsim/m{i}.py": BAD if i % 3 == 0 else CLEAN
        for i in range(6)
    }
    config = make_project(tmp_path, files)
    report = lint_paths(config=config)
    assert report.files == 6
    assert len(report.findings) == 2
    expected = sorted(str(config.root / rel) for rel in files)
    assert sorted(parsed) == expected
    assert sorted(read) == expected
    assert len(walked) == len(files)
    assert len({id(tree) for tree in walked}) == len(files)
    assert len(mapped) == len(files)


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
            ]
        )
        assert code == 0
        assert needle in capsys.readouterr().out
