"""Rule infrastructure: parsed modules, AST helpers, and the registry.

A rule is a class with an ``id``, a ``pack`` and a
``check(modules, config) -> List[Finding]`` method.  Rules receive every
parsed module plus the :class:`~repro.lint.config.LintConfig` and decide
their own scoping, so per-module packs and whole-project contract rules
share one interface.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.lint.config import LintConfig
from repro.lint.findings import Finding


@dataclass
class ModuleSource:
    """One parsed source file presented to every rule.

    ``nodes`` (every node of ``tree`` in ``ast.walk`` order) and
    ``imports`` are built once at parse time; rules iterate and read
    them instead of re-walking the tree.  Neither may be mutated.
    """

    path: Path  # absolute
    rel: str  # posix path relative to the analysed package root
    display: str  # repo-relative posix path used in findings
    text: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)
    nodes: List[ast.AST] = field(default_factory=list)
    imports: Dict[str, str] = field(default_factory=dict)

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        return Finding(
            rule=rule,
            path=self.display,
            line=line,
            message=message,
            snippet=self.snippet(line),
        )

    def in_dirs(self, dirs) -> bool:
        head = self.rel.split("/", 1)[0]
        return head in dirs


def parse_module(
    path: Path, rel: str, display: str, text: str
) -> Optional[ModuleSource]:
    """Parse ``text`` (the source read from ``path``); None if it does
    not parse.  The one full-tree walk and the import map happen here."""
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError:
        return None
    nodes = list(ast.walk(tree))
    return ModuleSource(
        path=path,
        rel=rel,
        display=display,
        text=text,
        tree=tree,
        lines=text.splitlines(),
        nodes=nodes,
        imports=import_map(nodes),
    )


# ------------------------------------------------------------- AST helpers


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """``X`` for an ``self.X`` attribute expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def import_map(nodes: Iterable[ast.AST]) -> Dict[str, str]:
    """Local name -> canonical dotted prefix, from a module's imports
    (``nodes`` is every node of the module, as ``ast.walk`` yields)."""
    mapping: Dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".", 1)[0]] = (
                    alias.name if alias.asname else alias.name.split(".", 1)[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return mapping


def canonical(dotted: Optional[str], imports: Dict[str, str]) -> Optional[str]:
    """Rewrite a dotted name's first segment through the import map."""
    if not dotted:
        return None
    head, _, rest = dotted.partition(".")
    mapped = imports.get(head)
    if mapped is None:
        return dotted
    return f"{mapped}.{rest}" if rest else mapped


def call_name(node: ast.Call, imports: Dict[str, str]) -> Optional[str]:
    return canonical(dotted_name(node.func), imports)


class Rule:
    """Base class; subclasses set ``id``/``pack`` and implement check().

    ``scope`` partitions rules: ``"file"`` rules see parsed modules one
    file at a time; ``"project"`` rules implement :meth:`check_project`
    against the assembled whole-program graph instead.
    """

    id: str = ""
    pack: str = ""
    description: str = ""
    scope: str = "file"

    def check(
        self, modules: List[ModuleSource], config: LintConfig
    ) -> List[Finding]:  # pragma: no cover - interface
        raise NotImplementedError


class ProjectRule(Rule):
    """A whole-program rule: runs once per lint against the project graph."""

    scope = "project"

    def check(self, modules, config) -> List[Finding]:
        return []

    def check_project(
        self, graph, config: LintConfig
    ) -> List[Finding]:  # pragma: no cover - interface
        raise NotImplementedError


def all_rules() -> List[Rule]:
    """Instantiate every registered rule (import cycles kept local)."""
    from repro.lint.rules import (
        concurrency,
        contracts,
        determinism,
        wholeprogram,
    )

    rules: List[Rule] = []
    for module in (determinism, concurrency, contracts, wholeprogram):
        for cls in module.RULES:
            rules.append(cls())
    return rules


__all__ = [
    "ModuleSource",
    "ProjectRule",
    "Rule",
    "all_rules",
    "call_name",
    "canonical",
    "dotted_name",
    "import_map",
    "parse_module",
]
