"""CLI plumbing for ``repro lint`` (registered from :mod:`repro.cli`).

Exit codes: 0 when every finding is suppressed inline, 1 when active
findings exist, 2 on usage errors — so ``repro lint`` drops straight
into CI as a gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.config import LintConfig, find_repo_root
from repro.lint.engine import LintReport, lint_paths
from repro.lint.findings import FORMATS, render_findings
from repro.lint.rules import all_rules


def add_lint_parser(sub) -> None:
    """Register the ``lint`` subcommand on the main CLI's subparsers."""
    p = sub.add_parser(
        "lint",
        help="determinism & concurrency static analysis (CI gate)",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    p.add_argument(
        "--format",
        choices=sorted(FORMATS),
        default="text",
        help="finding output format (github emits workflow annotations)",
    )
    p.add_argument(
        "--root",
        default=None,
        help="repository root (default: auto-detected from cwd)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule active/suppressed finding counts",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="list every rule with its pack and description",
    )
    p.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    p.add_argument(
        "--dump-graph",
        choices=("imports", "calls", "locks"),
        default=None,
        help="print the whole-program graph (imports/calls/locks) "
        "instead of linting",
    )
    p.set_defaults(fn=cmd_lint)


def _stats_table(report: LintReport) -> str:
    from repro.harness import reporting

    stats = report.stats()
    rows = []
    for rule in sorted(set(report.rules_run) | set(stats)):
        row = stats.get(rule, {"active": 0, "suppressed": 0})
        rows.append([rule, row["active"], row["suppressed"]])
    return reporting.format_table(
        ["rule", "active", "suppressed"],
        rows,
        title=f"lint stats over {report.files} files",
    )


def cmd_lint(args) -> int:
    root = Path(args.root).resolve() if args.root else find_repo_root()
    enabled = tuple(
        r.strip() for r in (args.rules or "").split(",") if r.strip()
    )
    config = LintConfig.for_root(root, enabled_rules=enabled)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:24s} [{rule.pack}] {rule.description}")
        return 0

    known = {rule.id for rule in all_rules()}
    unknown = [rule_id for rule_id in enabled if rule_id not in known]
    if unknown:
        print(
            f"unknown rule id(s): {', '.join(unknown)}; known rules: "
            f"{', '.join(sorted(known))}",
            file=sys.stderr,
        )
        return 2

    paths = [Path(p) for p in args.paths] if args.paths else None

    if args.dump_graph:
        from repro.lint.engine import build_project_graph
        from repro.lint.graph import render_graph

        graph = build_project_graph(config=config, paths=paths)
        print(render_graph(graph, args.dump_graph))
        return 0

    report = lint_paths(paths=paths, config=config)

    gated = report.findings + report.parse_errors
    if gated or args.format == "sarif":
        # SARIF consumers need a (possibly empty) document every run.
        print(render_findings(gated, args.format))
    if args.stats:
        print(_stats_table(report))
        print(
            f"totals: {len(report.findings)} active, "
            f"{len(report.suppressed)} suppressed"
        )
    if gated:
        if args.format not in ("github", "sarif"):
            print(
                f"\nlint: {len(gated)} finding(s); fix them or suppress "
                "with '# lint: disable=RULE -- why'",
                file=sys.stderr,
            )
        return 1
    if not args.stats and args.format != "sarif":
        print(
            f"lint: clean ({report.files} files, "
            f"{len(report.rules_run)} rules, "
            f"{len(report.suppressed)} suppressed)"
        )
    return 0


__all__ = ["add_lint_parser", "cmd_lint"]
