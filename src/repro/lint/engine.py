"""The lint engine: one serial, whole-program pass.

One :func:`lint_paths` call is one lint run, in three phases:

1. **Per-file analysis.**  Every target file is read and parsed once
   (:func:`~repro.lint.rules.parse_module` walks the tree and builds its
   import map once), its analysis summary is extracted
   (:mod:`repro.lint.graph`) and every ``scope="file"`` rule runs on it.
   Files are visited in sorted order, so the report is deterministic.
2. **Whole-program analysis.**  The summaries are assembled into the
   :class:`~repro.lint.graph.ProjectGraph`, and every
   ``scope="project"`` rule — lock-order cycles, held-lock blocking,
   determinism taint — runs against it.
3. **Suppressions.**  Raw findings pass through the inline
   ``# lint: disable=RULE -- why`` comments, the only waiver; a
   suppression that matched nothing becomes a finding itself.  The
   resulting :class:`LintReport` carries active findings (the CI gate)
   and the suppressed view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.graph import ProjectGraph, build_graph, extract_summary
from repro.lint.rules import Rule, all_rules, parse_module
from repro.lint.suppress import (
    Suppression,
    apply_suppressions,
    parse_suppressions,
    unused_suppressions,
)


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)  # active (gate)
    suppressed: List[Finding] = field(default_factory=list)
    parse_errors: List[Finding] = field(default_factory=list)
    files: int = 0
    rules_run: List[str] = field(default_factory=list)
    graph: Optional[ProjectGraph] = None

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def all_raw(self) -> List[Finding]:
        return self.findings + self.suppressed

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-rule counters: active / suppressed findings."""
        table: Dict[str, Dict[str, int]] = {}
        for column, findings in (
            ("active", self.findings),
            ("suppressed", self.suppressed),
        ):
            for finding in findings:
                row = table.setdefault(
                    finding.rule, {"active": 0, "suppressed": 0}
                )
                row[column] += 1
        return table


def _collect_files(paths: Sequence[Path], config: LintConfig) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    # De-duplicate while keeping a deterministic order.
    seen = {}
    for file in files:
        seen.setdefault(file.resolve(), file)
    return [seen[key] for key in sorted(seen)]


def _module_rel(path: Path, config: LintConfig) -> str:
    """Path relative to the analysed package root (posix separators)."""
    resolved = path.resolve()
    for anchor in (config.src.resolve(), config.root.resolve()):
        try:
            return resolved.relative_to(anchor).as_posix()
        except ValueError:
            continue
    return resolved.name


def _module_display(path: Path, config: LintConfig) -> str:
    resolved = path.resolve()
    try:
        return resolved.relative_to(config.root.resolve()).as_posix()
    except ValueError:
        return resolved.as_posix()


def lint_paths(
    paths: Optional[Sequence[Path]] = None,
    config: Optional[LintConfig] = None,
    rules: Optional[Sequence[Rule]] = None,
    keep_graph: bool = False,
) -> LintReport:
    """Run the linter; defaults to the configured package."""
    if config is None:
        from repro.lint.config import find_repo_root

        config = LintConfig.for_root(find_repo_root())
    if paths is None:
        paths = [config.src]
    chosen = list(rules) if rules is not None else all_rules()
    if config.enabled_rules:
        chosen = [r for r in chosen if r.id in config.enabled_rules]
    file_rules = [r for r in chosen if r.scope == "file"]
    project_rules = [r for r in chosen if r.scope == "project"]
    # Suppressions of a rule that did not run, or of a project rule
    # whose graph this run saw only part of, are not checked for use.
    src = config.src.resolve()
    whole = any(Path(p).resolve() in (src, *src.parents) for p in paths)
    checked = {r.id for r in (chosen if whole else file_rules)}

    report = LintReport(rules_run=[r.id for r in chosen])

    # Phase 1: per-file analysis, one parse and one walk per file.
    raw: List[Finding] = []
    suppressions_by_path: Dict[str, List[Suppression]] = {}
    summaries: List[Dict] = []
    for file in _collect_files(paths, config):
        try:
            text = file.read_text(encoding="utf-8")
        except OSError:
            continue
        display = _module_display(file, config)
        module = parse_module(file, _module_rel(file, config), display, text)
        if module is None:
            report.parse_errors.append(
                Finding(
                    rule="parse-error",
                    path=display,
                    line=1,
                    message="file does not parse; lint cannot analyse it",
                )
            )
            continue
        report.files += 1
        summaries.append(extract_summary(module))
        for rule in file_rules:
            raw.extend(rule.check([module], config))
        sups, bad = parse_suppressions(display, text)
        raw.extend(bad)
        suppressions_by_path[display] = sups

    # Phase 2: whole-program rules over the assembled graph.
    graph: Optional[ProjectGraph] = None
    if project_rules or keep_graph:
        graph = build_graph(summaries)
        for rule in project_rules:
            raw.extend(rule.check_project(graph, config))
    if keep_graph:
        report.graph = graph

    # Phase 3: suppressions (and their use), deterministic ordering.
    active, suppressed = apply_suppressions(raw, suppressions_by_path)
    active.extend(unused_suppressions(suppressions_by_path, checked))
    report.findings = sorted(
        active, key=lambda f: (f.path, f.line, f.rule, f.message)
    )
    report.suppressed = sorted(
        suppressed, key=lambda f: (f.path, f.line, f.rule, f.message)
    )
    return report


def build_project_graph(
    config: Optional[LintConfig] = None,
    paths: Optional[Sequence[Path]] = None,
) -> ProjectGraph:
    """Assemble the project graph alone (``--dump-graph``, sanitizer)."""
    report = lint_paths(paths=paths, config=config, keep_graph=True)
    assert report.graph is not None
    return report.graph


__all__ = ["LintReport", "build_project_graph", "lint_paths"]
