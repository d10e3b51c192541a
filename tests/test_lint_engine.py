"""Engine-level lint tests: suppressions (the only waiver), reporters,
CLI exit codes — and the acceptance check that the repo at HEAD is clean.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    Finding,
    LintConfig,
    find_repo_root,
    lint_paths,
    render_findings,
)

BAD_NETSIM = """\
import time

def stamp():
    return time.time()
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


# ------------------------------------------------------------ suppressions


def test_trailing_suppression_with_justification(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/netsim/a.py": """
                import time

                def stamp():
                    return time.time()  # lint: disable=wall-clock -- fixture clock
            """,
        },
    )
    report = run_lint(config)
    assert not report.findings
    assert [f.rule for f in report.suppressed] == ["wall-clock"]


def test_comment_line_suppresses_next_line(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/netsim/a.py": """
                import time

                def stamp():
                    # lint: disable=wall-clock -- fixture clock
                    return time.time()
            """,
        },
    )
    report = run_lint(config)
    assert not report.findings
    assert len(report.suppressed) == 1


def test_suppression_without_justification_is_itself_a_finding(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/netsim/a.py": """
                import time

                def stamp():
                    return time.time()  # lint: disable=wall-clock
            """,
        },
    )
    report = run_lint(config)
    rules = sorted(f.rule for f in report.findings)
    # The suppression is void (no justification), so the original
    # finding stays active *and* the silent disable is reported.
    assert rules == ["suppression-justification", "wall-clock"]


def test_suppression_for_other_rule_does_not_apply(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/netsim/a.py": """
                import time

                def stamp():
                    return time.time()  # lint: disable=set-iteration -- wrong rule
            """,
        },
    )
    report = run_lint(config)
    # The finding stays active, and the mismatched waiver is dead.
    assert [f.rule for f in report.findings] == [
        "unused-suppression",
        "wall-clock",
    ]


def test_unused_suppression_is_a_finding(tmp_path):
    """A waiver whose finding is gone (fixed code, or a site the
    analysis stopped seeing) must not rot silently: it gates."""
    config = make_project(
        tmp_path,
        {
            "src/repro/netsim/a.py": """
                def stamp(clock):
                    return clock()  # lint: disable=wall-clock -- nothing left to waive
            """,
        },
    )
    report = run_lint(config)
    assert [(f.rule, f.path, f.line) for f in report.findings] == [
        ("unused-suppression", "src/repro/netsim/a.py", 2)
    ]
    assert "wall-clock" in report.findings[0].message
    assert not report.ok


def test_partly_used_suppression_reports_only_dead_rule(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/netsim/a.py": """
                import time

                def stamp():
                    return time.time()  # lint: disable=wall-clock,set-iteration -- fixture clock
            """,
        },
    )
    report = run_lint(config)
    assert [f.rule for f in report.suppressed] == ["wall-clock"]
    (unused,) = report.findings
    assert (unused.rule, unused.line) == ("unused-suppression", 4)
    assert "disable=set-iteration'" in unused.message


def test_suppression_of_rule_not_run_is_not_unused(tmp_path):
    """A ``--rules`` subset cannot tell a dead waiver from one whose
    rule simply did not run, so it reports neither."""
    files = {
        "src/repro/netsim/a.py": """
            import time

            def stamp():
                return time.time()  # lint: disable=wall-clock -- fixture clock
        """,
    }
    config = make_project(tmp_path, files)
    subset = LintConfig.for_root(config.root, enabled_rules=("set-iteration",))
    assert run_lint(subset).ok


def test_project_rule_suppression_unchecked_on_partial_run(tmp_path):
    """Linting one file builds a partial graph: a whole-program finding
    can vanish with the modules left out, so its waiver is not dead."""
    config = make_project(
        tmp_path,
        {
            "src/repro/chain.py": """
                import threading

                from repro.io import slow

                LOCK = threading.Lock()

                def entry():
                    with LOCK:
                        slow()  # lint: disable=lock-held-blocking -- bounded
            """,
            "src/repro/io.py": """
                import time

                def slow():
                    time.sleep(0.5)
            """,
        },
    )
    assert run_lint(config).ok
    partial = lint_paths(paths=[config.src / "chain.py"], config=config)
    assert partial.ok and not partial.suppressed


# --------------------------------------------------------------- reporters


@pytest.fixture()
def sample_finding():
    return Finding(
        rule="wall-clock",
        path="src/repro/netsim/a.py",
        line=4,
        message="time.time() is wall-clock",
        snippet="return time.time()",
    )


def test_text_format(sample_finding):
    out = render_findings([sample_finding], "text")
    assert out == (
        "src/repro/netsim/a.py:4: wall-clock: time.time() is wall-clock"
    )


def test_json_format(sample_finding):
    rows = json.loads(render_findings([sample_finding], "json"))
    assert rows == [
        {
            "rule": "wall-clock",
            "path": "src/repro/netsim/a.py",
            "line": 4,
            "message": "time.time() is wall-clock",
            "snippet": "return time.time()",
        }
    ]


def test_github_format_escapes_percent(sample_finding):
    out = render_findings([sample_finding], "github")
    assert out.startswith("::error file=src/repro/netsim/a.py,line=4::")
    weird = Finding("r", "p.py", 1, "100% broken\nnext", "")
    escaped = render_findings([weird], "github")
    assert "100%25 broken%0Anext" in escaped


def test_unknown_format_raises(sample_finding):
    with pytest.raises(ValueError):
        render_findings([sample_finding], "yaml")


# -------------------------------------------------------------------- CLI


def lint_cli(config, *extra):
    argv = ["lint", str(config.src), "--root", str(config.root)]
    argv += list(extra)
    return main(argv)


def test_cli_exit_one_on_findings_zero_when_clean(tmp_path, capsys):
    config = make_project(tmp_path, {"src/repro/netsim/a.py": BAD_NETSIM})
    assert lint_cli(config) == 1
    out, err = capsys.readouterr()
    assert "wall-clock" in out
    assert "suppress with" in err

    (config.src / "netsim" / "a.py").write_text("X = 1\n")
    assert lint_cli(config) == 0
    out, _ = capsys.readouterr()
    assert "lint: clean" in out


def test_removed_options_are_usage_errors(tmp_path, capsys):
    """Inline suppressions are the only waiver and the pass is serial:
    the old baseline and thread-pool options no longer parse."""
    config = make_project(tmp_path, {"src/repro/netsim/a.py": BAD_NETSIM})
    for extra in (
        ["--baseline", str(tmp_path / "b.json")],
        ["--write-baseline"],
        ["--jobs", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            lint_cli(config, *extra)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_stats_prints_per_rule_counts(tmp_path, capsys):
    config = make_project(
        tmp_path,
        {
            "src/repro/netsim/a.py": """
                import time
                import random

                X = random.random()

                def stamp():
                    return time.time()  # lint: disable=wall-clock -- fixture
            """,
        },
    )
    code = lint_cli(config, "--stats")
    out = capsys.readouterr().out
    assert code == 1
    assert "unseeded-random" in out
    assert "totals: 1 active, 1 suppressed" in out
    assert "baselined" not in out


def test_cli_rules_filter_and_unknown_rule(tmp_path, capsys):
    config = make_project(tmp_path, {"src/repro/netsim/a.py": BAD_NETSIM})
    # Filtered to an unrelated rule: the wall-clock violation is unseen.
    assert lint_cli(config, "--rules", "set-iteration") == 0
    capsys.readouterr()
    assert lint_cli(config, "--rules", "no-such-rule") == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "wall-clock",
        "unseeded-random",
        "set-iteration",
        "id-keyed-dict",
        "environ-read",
        "lock-discipline",
        "sqlite-thread",
        "stack-profile-fields",
        "cca-hook-surface",
        "cli-doc-coverage",
        "lock-order-cycle",
        "lock-held-blocking",
        "taint-identity",
    ):
        assert rule_id in out
    # One rule per held-lock stall: lock-held-blocking covers it.
    assert "blocking-under-lock" not in out


def test_cli_github_format(tmp_path, capsys):
    config = make_project(tmp_path, {"src/repro/netsim/a.py": BAD_NETSIM})
    code = lint_cli(
        config, "--format", "github"
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "::error file=" in out


def test_parse_error_gates(tmp_path, capsys):
    config = make_project(
        tmp_path, {"src/repro/netsim/a.py": "def broken(:\n"}
    )
    assert lint_cli(config) == 1
    assert "parse-error" in capsys.readouterr().out


# ------------------------------------------------- acceptance: repo clean


def test_repo_at_head_is_clean():
    """The CI gate itself: src/repro at HEAD lints clean."""
    root = find_repo_root(Path(__file__).resolve().parent)
    config = LintConfig.for_root(root)
    report = lint_paths(config=config)
    assert report.ok, render_findings(
        report.findings + report.parse_errors, "text"
    )
    # Every inline suppression in the tree carries a justification and
    # is actually used (a dead one is an active unused-suppression).
    assert {"suppression-justification", "unused-suppression"}.isdisjoint(
        f.rule for f in report.findings
    )


def test_repo_lint_runs_fast_enough():
    """The CI job budget is 30s; the lint itself must be well inside it."""
    import time as _time

    root = find_repo_root(Path(__file__).resolve().parent)
    config = LintConfig.for_root(root)
    start = _time.perf_counter()
    lint_paths(config=config)
    assert _time.perf_counter() - start < 30.0
