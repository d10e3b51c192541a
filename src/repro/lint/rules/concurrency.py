"""Concurrency rule pack.

Applied to the threaded packages (``service/``, ``exec/``, ``store/``):

* ``lock-discipline`` — for every class that builds a ``threading``
  lock/condition in ``__init__``, *learn* which ``self._*`` attributes
  are written while that lock is held, then report any access to those
  attributes outside a locked region.  Attributes built from internally
  synchronised types (queues, events, ...) are exempt, as is
  ``__init__`` itself (construction happens-before publication).
* ``sqlite-thread`` — ``sqlite3`` connections are thread-bound: flag
  ``check_same_thread=False``, connections handed to ``threading.Thread``
  via ``args=``, and thread-target methods that use a connection
  attribute created elsewhere.
* ``raw-sleep-retry`` — a raw ``time.sleep`` in these packages is a
  hand-rolled retry loop; pauses go through the one ``RetryPolicy``.

A blocking call made while a lock is held is the whole-program rule
``lock-held-blocking`` (:mod:`repro.lint.rules.wholeprogram`): it sees
the call in the locking method itself and through any call chain.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.config import LOCK_FACTORIES, LintConfig
from repro.lint.findings import Finding
from repro.lint.rules import (
    ModuleSource,
    Rule,
    _self_attr,
    call_name,
    dotted_name,
)

#: Methods where unlocked access is allowed: construction and teardown
#: happen before/after the object is shared between threads.
_EXEMPT_METHODS = frozenset({"__init__", "__del__", "__post_init__"})


def _init_factories(cls: ast.ClassDef, imports) -> Dict[str, str]:
    """Map ``self.X`` -> canonical factory name for ``self.X = Fac(...)``."""
    factories: Dict[str, str] = {}
    for method in cls.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if method.name != "__init__":
            continue
        for node in ast.walk(method):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            name = call_name(node.value, imports)
            if not name:
                continue
            for target in node.targets:
                attr = _self_attr(target)
                if attr:
                    factories[attr] = name
    return factories


class _Access:
    __slots__ = ("attr", "write", "locked", "method", "node")

    def __init__(self, attr, write, locked, method, node):
        self.attr = attr
        self.write = write
        self.locked = locked
        self.method = method
        self.node = node


def _with_lock_attrs(node: ast.With, lock_attrs: Set[str]) -> bool:
    """True when a ``with`` statement acquires one of the class locks."""
    for item in node.items:
        attr = _self_attr(item.context_expr)
        if attr in lock_attrs:
            return True
        # `with self._lock.acquire():` style — treat any call on the
        # lock attribute as acquisition too.
        if isinstance(item.context_expr, ast.Call):
            callee = item.context_expr.func
            if isinstance(callee, ast.Attribute) and _self_attr(
                callee.value
            ) in lock_attrs:
                return True
    return False


#: Method calls that mutate their receiver in place: ``self._x.append(y)``
#: is a write to ``self._x`` for lock-learning purposes.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "popleft", "appendleft", "clear", "remove",
        "discard", "sort", "reverse",
    }
)


def _collect_accesses(
    method: ast.FunctionDef, lock_attrs: Set[str]
) -> List[_Access]:
    """Every ``self._*`` access in a method, tagged locked/unlocked.

    Writes are direct assignments (``self._x = ...``), subscript or
    attribute stores through the attribute (``self._x[k] = ...``),
    augmented assignments, and in-place mutator calls
    (``self._x.append(...)``).
    """
    accesses: List[_Access] = []

    def record(attr: Optional[str], write: bool, locked: bool, node) -> None:
        if attr is not None and attr.startswith("_"):
            accesses.append(_Access(attr, write, locked, method.name, node))

    def walk(node: ast.AST, locked: bool) -> None:
        if isinstance(node, ast.With) and _with_lock_attrs(node, lock_attrs):
            for item in node.items:
                walk(item.context_expr, locked)
            for stmt in node.body:
                walk(stmt, True)
            return
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            record(_self_attr(node.value), True, locked, node)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATOR_METHODS
        ):
            record(_self_attr(node.func.value), True, locked, node)
        attr = _self_attr(node)
        if attr is not None:
            write = isinstance(node.ctx, (ast.Store, ast.Del))
            record(attr, write, locked, node)
        for child in ast.iter_child_nodes(node):
            walk(child, locked)

    for stmt in method.body:
        walk(stmt, False)
    return accesses


class LockDisciplineRule(Rule):
    id = "lock-discipline"
    pack = "concurrency"
    description = (
        "attributes written under a class's lock must never be accessed "
        "without it"
    )

    def check(self, modules, config):
        findings: List[Finding] = []
        for module in modules:
            if not module.in_dirs(config.concurrency_dirs):
                continue
            imports = module.imports
            for node in module.nodes:
                if isinstance(node, ast.ClassDef):
                    findings.extend(
                        self._check_class(module, node, imports, config)
                    )
        return findings

    def _check_class(
        self,
        module: ModuleSource,
        cls: ast.ClassDef,
        imports,
        config: LintConfig,
    ) -> List[Finding]:
        factories = _init_factories(cls, imports)
        lock_attrs = {
            attr
            for attr, factory in factories.items()
            if factory in LOCK_FACTORIES
        }
        if not lock_attrs:
            return []
        thread_safe = {
            attr
            for attr, factory in factories.items()
            if factory in config.thread_safe_factories
        }
        methods = [
            stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        accesses: List[_Access] = []
        for method in methods:
            accesses.extend(_collect_accesses(method, lock_attrs))
        # Learn the protected set: attributes somebody writes while
        # holding the lock (outside __init__).
        protected: Dict[str, Tuple[str, int]] = {}
        for acc in accesses:
            if (
                acc.write
                and acc.locked
                and acc.method not in _EXEMPT_METHODS
                and acc.attr not in lock_attrs
                and acc.attr not in thread_safe
            ):
                protected.setdefault(
                    acc.attr, (acc.method, acc.node.lineno)
                )
        findings: List[Finding] = []
        reported: Set[Tuple[str, int]] = set()
        for acc in accesses:
            if (
                acc.attr in protected
                and not acc.locked
                and acc.method not in _EXEMPT_METHODS
                # One finding per (attribute, line): a subscript store
                # records both the store and the inner attribute load.
                and (acc.attr, acc.node.lineno) not in reported
            ):
                reported.add((acc.attr, acc.node.lineno))
                where, line = protected[acc.attr]
                lock_names = ", ".join(
                    f"self.{name}" for name in sorted(lock_attrs)
                )
                findings.append(
                    module.finding(
                        self.id,
                        acc.node,
                        f"{cls.name}.{acc.method} accesses self.{acc.attr} "
                        f"without holding {lock_names}, but "
                        f"{cls.name}.{where} (line {line}) writes it "
                        "under the lock",
                    )
                )
        return findings


class SqliteThreadRule(Rule):
    id = "sqlite-thread"
    pack = "concurrency"
    description = (
        "sqlite3 connections are thread-bound; open one per thread "
        "instead of sharing"
    )

    def check(self, modules, config):
        findings: List[Finding] = []
        for module in modules:
            if not module.in_dirs(config.concurrency_dirs):
                continue
            imports = module.imports
            conn_names: Set[str] = set()  # "x" locals and "self.x" attrs
            func_defs: Dict[str, ast.FunctionDef] = {}
            for node in module.nodes:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    func_defs.setdefault(node.name, node)
                if not isinstance(node, ast.Assign):
                    continue
                if (
                    isinstance(node.value, ast.Call)
                    and call_name(node.value, imports) == "sqlite3.connect"
                ):
                    for target in node.targets:
                        name = dotted_name(target)
                        if name:
                            conn_names.add(name)
            for node in module.nodes:
                if not isinstance(node, ast.Call):
                    continue
                name = call_name(node, imports)
                if name == "sqlite3.connect":
                    for kw in node.keywords:
                        if (
                            kw.arg == "check_same_thread"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is False
                        ):
                            findings.append(
                                module.finding(
                                    self.id,
                                    node,
                                    "check_same_thread=False disables "
                                    "sqlite3's thread guard; open one "
                                    "connection per thread instead",
                                )
                            )
                elif name == "threading.Thread":
                    findings.extend(
                        self._check_thread_call(
                            module, node, conn_names, func_defs
                        )
                    )
        return findings

    def _check_thread_call(
        self, module, node: ast.Call, conn_names, func_defs
    ) -> List[Finding]:
        findings: List[Finding] = []
        target_name = None
        for kw in node.keywords:
            if kw.arg == "args" and isinstance(kw.value, (ast.Tuple, ast.List)):
                for element in kw.value.elts:
                    if dotted_name(element) in conn_names:
                        findings.append(
                            module.finding(
                                self.id,
                                node,
                                "sqlite3 connection passed into a thread "
                                "via args=; the target thread cannot use "
                                "it",
                            )
                        )
            elif kw.arg == "target":
                target_name = dotted_name(kw.value)
        if target_name:
            func = func_defs.get(target_name.split(".")[-1])
            if func is not None:
                # A connection the target opens in its own body belongs
                # to the worker thread — the sanctioned pattern.
                own: Set[str] = set()
                for inner in ast.walk(func):
                    if isinstance(inner, ast.Assign):
                        for target in inner.targets:
                            name = dotted_name(target)
                            if name:
                                own.add(name)
                for inner in ast.walk(func):
                    used = dotted_name(inner)
                    if used in conn_names and used not in own:
                        findings.append(
                            module.finding(
                                self.id,
                                node,
                                f"thread target {func.name}() uses the "
                                f"sqlite3 connection {used} opened on "
                                "another thread",
                            )
                        )
                        break
        return findings


class RawSleepRetryRule(Rule):
    id = "raw-sleep-retry"
    pack = "concurrency"
    description = (
        "raw time.sleep in the pipeline packages is a hand-rolled retry "
        "loop; route pauses through repro.faults.retry.RetryPolicy"
    )

    def check(self, modules, config):
        findings: List[Finding] = []
        allowed = getattr(config, "sleep_allowed_files", ())
        sanctioned = getattr(
            config, "sanctioned_sleep", "repro.faults.retry.default_sleep"
        )
        for module in modules:
            if not module.in_dirs(config.concurrency_dirs):
                continue
            if module.rel in allowed:
                continue
            imports = module.imports
            for node in module.nodes:
                if not isinstance(node, ast.Call):
                    continue
                if call_name(node, imports) == "time.sleep":
                    findings.append(
                        module.finding(
                            self.id,
                            node,
                            "time.sleep() outside RetryPolicy: retry "
                            "pauses must go through the policy's "
                            f"injectable sleep seam ({sanctioned})",
                        )
                    )
        return findings


RULES = (
    LockDisciplineRule,
    SqliteThreadRule,
    RawSleepRetryRule,
)

__all__ = ["RULES"] + [cls.__name__ for cls in RULES]
