"""Contract rule pack: project-level completeness checks.

These rules keep the registry, the CCA hook surface and the docs in
lockstep with the code:

* ``stack-profile-fields`` — every ``PROFILE = StackProfile(...)`` in
  ``stacks/`` passes the full required field set, so a new stack cannot
  silently fall back to defaults the paper's tables disagree with.
* ``cca-hook-surface`` — every direct ``CongestionController`` subclass
  implements the hooks the sender drives (``cwnd``, ``on_ack``,
  ``on_congestion_event``) and declares its ``name``.
* ``cli-doc-coverage`` — every CLI subcommand registered in
  ``cli.py`` appears somewhere in README.md / docs/*.md.
* ``queue-sql-confinement`` — SQL touching the fabric queue tables
  (``fabric_tasks`` / ``fabric_tenants``) lives only in
  ``fabric/queue.py`` and the schema ladder; every other module goes
  through :class:`repro.fabric.queue.WorkQueue`, so lease/state
  invariants have exactly one enforcement point.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Set

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.rules import ModuleSource, Rule, dotted_name

#: StackProfile keywords a registered stack must pass explicitly.
REQUIRED_PROFILE_FIELDS = ("name", "organization", "version", "ccas")

#: Hook surface every direct CongestionController subclass must define.
REQUIRED_CCA_HOOKS = ("cwnd", "on_ack", "on_congestion_event")

#: Stacks-package modules that do not register a profile.
_STACKS_EXEMPT = {"stacks/__init__.py", "stacks/base.py",
                  "stacks/registry.py", "stacks/_common.py"}


class StackProfileFieldsRule(Rule):
    id = "stack-profile-fields"
    pack = "contracts"
    description = (
        "registered StackProfile(...) calls must pass "
        + "/".join(REQUIRED_PROFILE_FIELDS)
        + " explicitly"
    )

    def check(self, modules, config):
        findings: List[Finding] = []
        for module in modules:
            if not module.rel.startswith("stacks/"):
                continue
            if module.rel in _STACKS_EXEMPT:
                continue
            profile_call = self._profile_call(module.nodes)
            if profile_call is None:
                findings.append(
                    Finding(
                        rule=self.id,
                        path=module.display,
                        line=1,
                        message=(
                            "stacks module registers no "
                            "'PROFILE = StackProfile(...)'"
                        ),
                        snippet=module.snippet(1),
                    )
                )
                continue
            passed = {kw.arg for kw in profile_call.keywords if kw.arg}
            missing = [
                fieldname
                for fieldname in REQUIRED_PROFILE_FIELDS
                if fieldname not in passed
            ]
            if missing:
                findings.append(
                    module.finding(
                        self.id,
                        profile_call,
                        "StackProfile is missing required field(s): "
                        + ", ".join(missing),
                    )
                )
        return findings

    @staticmethod
    def _profile_call(nodes: List[ast.AST]) -> Optional[ast.Call]:
        for node in nodes:
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Name) and t.id == "PROFILE"
                for t in node.targets
            ):
                continue
            value = node.value
            if isinstance(value, ast.Call):
                name = dotted_name(value.func) or ""
                if name.split(".")[-1] == "StackProfile":
                    return value
        return None


class CCAHookSurfaceRule(Rule):
    id = "cca-hook-surface"
    pack = "contracts"
    description = (
        "direct CongestionController subclasses must define "
        + "/".join(REQUIRED_CCA_HOOKS)
        + " and a class-level name"
    )

    def check(self, modules, config):
        findings: List[Finding] = []
        for module in modules:
            if not module.rel.startswith("cca/"):
                continue
            for node in module.nodes:
                if not isinstance(node, ast.ClassDef):
                    continue
                bases = {
                    (dotted_name(base) or "").split(".")[-1]
                    for base in node.bases
                }
                if "CongestionController" not in bases:
                    continue
                defined = self._defined_names(node)
                missing = [
                    hook for hook in REQUIRED_CCA_HOOKS if hook not in defined
                ]
                if "name" not in defined:
                    missing.append("name")
                if missing:
                    findings.append(
                        module.finding(
                            self.id,
                            node,
                            f"CCA class {node.name} is missing: "
                            + ", ".join(missing),
                        )
                    )
        return findings

    @staticmethod
    def _defined_names(cls: ast.ClassDef) -> Set[str]:
        defined: Set[str] = set()
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                defined.add(stmt.target.id)
        return defined


class CliDocCoverageRule(Rule):
    id = "cli-doc-coverage"
    pack = "contracts"
    description = (
        "every CLI subcommand registered via add_parser must be "
        "documented in README.md or docs/"
    )

    def check(self, modules, config):
        cli_modules = [
            m for m in modules
            if m.rel == "cli.py" or m.rel.endswith("/cli.py")
        ]
        if not cli_modules:
            return []
        corpus = config.doc_corpus()
        if not corpus:
            return []
        findings: List[Finding] = []
        for cli_module in cli_modules:
            findings.extend(self._check_module(cli_module, corpus))
        return findings

    def _check_module(self, cli_module, corpus):
        findings: List[Finding] = []
        for node in cli_module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func) or ""
            if not name.endswith("add_parser"):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not isinstance(first, ast.Constant) or not isinstance(
                first.value, str
            ):
                continue
            command = first.value
            if not re.search(rf"\b{re.escape(command)}\b", corpus):
                findings.append(
                    cli_module.finding(
                        self.id,
                        node,
                        f"subcommand {command!r} is not mentioned in "
                        "README.md or docs/*.md",
                    )
                )
        return findings


#: The fabric queue tables and the only modules allowed to name them in
#: SQL (the queue itself, and the schema migration ladder).  The worker
#: registry rides the same confinement: drain directives and liveness
#: stamps must go through WorkQueue so their invariants audit in one
#: file.
QUEUE_TABLES = ("fabric_tasks", "fabric_tenants", "fabric_workers")
_QUEUE_SQL_ALLOWED = {
    "fabric/queue.py",
    "store/schema.py",
    # The rule's own definition names the tables it polices.
    "lint/rules/contracts.py",
}


class QueueSqlConfinementRule(Rule):
    id = "queue-sql-confinement"
    pack = "contracts"
    description = (
        "SQL against the fabric queue tables ("
        + "/".join(QUEUE_TABLES)
        + ") is confined to fabric/queue.py and store/schema.py"
    )

    def check(self, modules, config):
        findings: List[Finding] = []
        for module in modules:
            if module.rel in _QUEUE_SQL_ALLOWED:
                continue
            for node in module.nodes:
                if not isinstance(node, ast.Constant) or not isinstance(
                    node.value, str
                ):
                    continue
                named = [t for t in QUEUE_TABLES if t in node.value]
                if not named:
                    continue
                findings.append(
                    module.finding(
                        self.id,
                        node,
                        "queue-table SQL ("
                        + ", ".join(named)
                        + ") outside fabric/queue.py — go through "
                        "repro.fabric.queue.WorkQueue",
                    )
                )
        return findings


RULES = (
    StackProfileFieldsRule,
    CCAHookSurfaceRule,
    CliDocCoverageRule,
    QueueSqlConfinementRule,
)

__all__ = [
    "RULES",
    "REQUIRED_PROFILE_FIELDS",
    "REQUIRED_CCA_HOOKS",
    "QUEUE_TABLES",
] + [cls.__name__ for cls in RULES]
