"""Determinism rule pack.

Applied to the simulation and metric packages (``netsim/``, ``cca/``,
``stacks/``, ``core/``, ``harness/``, ...): anything that can make two
runs of the same seeded experiment differ — wall-clock reads, unseeded
randomness, set-iteration order, ``id()`` keys, environment reads — is
reported, because the paper's methodology attributes every deviation to
the implementation under test, never to environmental noise.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.rules import (
    ModuleSource,
    Rule,
    call_name,
    canonical,
    dotted_name,
)

#: Canonical names whose call reads a clock that differs between runs.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    id = "wall-clock"
    pack = "determinism"
    description = (
        "wall-clock reads (time.time/monotonic/perf_counter, datetime.now) "
        "are forbidden in simulation paths; telemetry injects the "
        "sanctioned clock seam instead"
    )

    def _applies(self, module: ModuleSource, config: LintConfig) -> bool:
        return (
            module.in_dirs(config.determinism_dirs)
            or module.rel in config.wallclock_extra_files
        )

    def check(self, modules, config):
        findings: List[Finding] = []
        for module in modules:
            if not self._applies(module, config):
                continue
            imports = module.imports
            for node in module.nodes:
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node, imports)
                if name in WALL_CLOCK_CALLS:
                    findings.append(
                        module.finding(
                            self.id,
                            node,
                            f"{name}() reads the wall clock; inject "
                            f"{config.sanctioned_clock} (or simulated "
                            "time) instead",
                        )
                    )
        return findings


class UnseededRandomRule(Rule):
    id = "unseeded-random"
    pack = "determinism"
    description = (
        "module-level random.* calls and numpy global RNG use are "
        "forbidden; build random.Random(seed) / np.random.default_rng(seed)"
    )

    def check(self, modules, config):
        findings: List[Finding] = []
        for module in modules:
            if not module.in_dirs(config.determinism_dirs):
                continue
            imports = module.imports
            for node in module.nodes:
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node, imports)
                if not name:
                    continue
                message = self._verdict(name, node)
                if message:
                    findings.append(module.finding(self.id, node, message))
        return findings

    @staticmethod
    def _verdict(name: str, node: ast.Call) -> Optional[str]:
        seeded = bool(node.args) or bool(node.keywords)
        if name == "random.Random":
            if not seeded:
                return "random.Random() without a seed is nondeterministic"
            return None
        if name == "random.SystemRandom":
            return "random.SystemRandom draws OS entropy (never reproducible)"
        if name.startswith("random."):
            tail = name.split(".", 1)[1]
            return (
                f"module-level random.{tail}() uses the shared unseeded "
                "RNG; derive a random.Random(seed) instance instead"
            )
        if name.startswith("numpy.random."):
            tail = name[len("numpy.random."):]
            if tail == "default_rng":
                if not seeded:
                    return (
                        "np.random.default_rng() without a seed is "
                        "nondeterministic"
                    )
                return None
            if tail in ("Generator", "SeedSequence", "PCG64", "Philox"):
                return None  # explicit bit-generator plumbing is seeded upstream
            return (
                f"np.random.{tail} uses numpy's global RNG; use "
                "np.random.default_rng(seed)"
            )
        return None


#: Consumers for which a set argument is order-insensitive.
_ORDER_FREE = frozenset(
    {
        "sorted", "len", "sum", "min", "max", "any", "all", "bool",
        "set", "frozenset",
    }
)


class _SetScan(ast.NodeVisitor):
    """Scope-aware scan for order-sensitive consumption of sets.

    Tracks, per function/class scope, which local names were last
    assigned a set-valued expression; nested scopes inherit the taint of
    their enclosing scope at definition point.
    """

    def __init__(self, rule, module, imports, findings, inherited=()):
        self.rule = rule
        self.module = module
        self.imports = imports
        self.findings = findings
        self.set_vars: Set[str] = set(inherited)

    def scan(self, scope) -> None:
        for stmt in scope.body:
            self.visit(stmt)

    def _nested(self, node) -> None:
        _SetScan(
            self.rule, self.module, self.imports, self.findings, self.set_vars
        ).scan(node)

    def visit_FunctionDef(self, node):
        self._nested(node)

    visit_AsyncFunctionDef = visit_FunctionDef
    visit_ClassDef = visit_FunctionDef

    def _is_set_expr(self, node) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        if isinstance(node, ast.Call):
            return canonical(dotted_name(node.func), self.imports) in (
                "set",
                "frozenset",
            )
        return False

    def _report(self, node, message) -> None:
        self.findings.append(self.module.finding(self.rule.id, node, message))

    def visit_Assign(self, node):
        self.generic_visit(node)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if self._is_set_expr(node.value):
                self.set_vars.add(node.targets[0].id)
            else:
                self.set_vars.discard(node.targets[0].id)

    def visit_For(self, node):
        if self._is_set_expr(node.iter):
            self._report(
                node,
                "for-loop over a set: iteration order is hash order; "
                "wrap in sorted(...)",
            )
        self.generic_visit(node)

    def _visit_comp(self, node):
        for gen in node.generators:
            if self._is_set_expr(gen.iter):
                self._report(
                    node,
                    "comprehension over a set produces hash-ordered "
                    "output; wrap in sorted(...)",
                )
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_GeneratorExp = _visit_comp
    visit_DictComp = _visit_comp

    def visit_Call(self, node):
        name = canonical(dotted_name(node.func), self.imports) or ""
        ordered_sink = (
            name in ("list", "tuple", "enumerate", "dict.fromkeys")
            or name.endswith(".join")
        )
        if ordered_sink and node.args and self._is_set_expr(node.args[0]):
            self._report(
                node,
                f"{name}(<set>) freezes hash order into an ordered "
                "result; sort first",
            )
        self.generic_visit(node)


class SetIterationRule(Rule):
    id = "set-iteration"
    pack = "determinism"
    description = (
        "iterating a set/frozenset feeds hash order into results; sort "
        "first (sorted(...)) or keep a list"
    )

    def check(self, modules, config):
        findings: List[Finding] = []
        for module in modules:
            if not module.in_dirs(config.determinism_dirs):
                continue
            imports = module.imports
            _SetScan(self, module, imports, findings).scan(module.tree)
        return findings


class IdKeyedDictRule(Rule):
    id = "id-keyed-dict"
    pack = "determinism"
    description = (
        "id() values vary between runs; key containers by stable "
        "identity (names, tuples) instead"
    )

    def check(self, modules, config):
        findings: List[Finding] = []
        for module in modules:
            if not module.in_dirs(config.determinism_dirs):
                continue
            for node in module.nodes:
                spot = self._id_key_site(node)
                if spot is not None:
                    findings.append(
                        module.finding(
                            self.id, spot,
                            "container keyed by id(...): addresses differ "
                            "between runs and resurrect freed ids",
                        )
                    )
        return findings

    @staticmethod
    def _is_id_call(node) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        )

    def _id_key_site(self, node):
        if isinstance(node, ast.Subscript) and self._is_id_call(node.slice):
            return node
        if isinstance(node, ast.Dict) and any(
            self._is_id_call(k) for k in node.keys if k is not None
        ):
            return node
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "setdefault", "pop", "add")
            and node.args
            and self._is_id_call(node.args[0])
        ):
            return node
        return None


class EnvironReadRule(Rule):
    id = "environ-read"
    pack = "determinism"
    description = (
        "os.environ is hidden global state; read it only in the "
        "config/cache seams and pass values down explicitly"
    )

    def check(self, modules, config):
        findings: List[Finding] = []
        for module in modules:
            if module.rel in config.environ_allowed_files:
                continue
            imports = module.imports
            for node in module.nodes:
                name = None
                if isinstance(node, ast.Call):
                    name = call_name(node, imports)
                    if name is not None and not (
                        name == "os.getenv"
                        or name.startswith("os.environ.")
                    ):
                        name = None
                elif isinstance(node, ast.Subscript):
                    base = canonical(dotted_name(node.value), imports)
                    if base == "os.environ":
                        name = "os.environ[...]"
                if name:
                    allowed = ", ".join(config.environ_allowed_files)
                    findings.append(
                        module.finding(
                            self.id, node,
                            f"{name} read outside the sanctioned files "
                            f"({allowed})",
                        )
                    )
        return findings


RULES = (
    WallClockRule,
    UnseededRandomRule,
    SetIterationRule,
    IdKeyedDictRule,
    EnvironReadRule,
)

__all__ = ["RULES"] + [cls.__name__ for cls in RULES]
