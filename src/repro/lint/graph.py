"""Whole-program analysis layer: import graph, call graph, lock graph.

PR 4's rule packs see one file at a time; this module is the engine's
second storey.  For every parsed module it extracts a compact,
JSON-serialisable **analysis summary** (imports, classes, lock
construction sites, and per-function facts: calls made, locks acquired,
blocking primitives reached, taint-relevant flows).

:class:`ProjectGraph` assembles the summaries into the whole-program
view the new ``concurrency.*`` / ``determinism.*`` rules consume:

* the **import graph** over project modules;
* an **approximate call graph** — direct calls, ``self.method()``
  resolved through the class hierarchy (including project subclass
  overrides, so ``Scheduler.submit`` sees ``Coordinator._dispatch``),
  calls through locals typed by constructor calls, ``with ... as``
  bindings, parameter annotations and return annotations, and
  re-exports chased through package ``__init__`` import maps;
* the **lock model** — every ``threading.Lock/RLock/Condition``
  construction site, keyed by a stable id
  (``repro.service.scheduler.Scheduler._lock``), with
  ``Condition(self._lock)`` aliased onto the wrapped lock.

:class:`LockAnalysis` runs the interprocedural pass on top: a fixpoint
over the call graph computes, for every function, the set of locks it
*may acquire* and the blocking primitives it *may reach*; lock-order
edges are recorded whenever a lock is acquired (directly or through any
resolved call chain) while another is held.  Cycles in that graph are
potential deadlocks (rule ``lock-order-cycle``); blocking primitives
reached with a lock held are stalls (rule ``lock-held-blocking``).

Approximations, stated honestly: instances are merged per (class, attr)
— every ``CircuitBreaker._lock`` is one abstract lock; calls through
unannotated callables (``self._clock()``) do not resolve; relative
imports and dynamic dispatch beyond project subclass overrides are not
chased.  The runtime sanitizer (:mod:`repro.lint.sanitizer`) exists to
validate these approximations against real execution.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.config import LOCK_FACTORIES, LintConfig
from repro.lint.findings import Finding
from repro.lint.rules import (
    ModuleSource,
    _self_attr,
    canonical,
    dotted_name,
)

#: Canonical callables that block the calling thread.
BLOCKING_CALLS = {
    "time.sleep": "time.sleep() sleeps",
    "urllib.request.urlopen": "urllib urlopen does network I/O",
    "subprocess.run": "subprocess.run waits on a child process",
    "subprocess.call": "subprocess.call waits on a child process",
    "subprocess.check_call": "subprocess.check_call waits on a child",
    "subprocess.check_output": "subprocess.check_output waits on a child",
    "socket.create_connection": "socket.create_connection does network I/O",
}
BLOCKING_PREFIXES = ("requests.", "http.client.")

#: Attribute calls that block when the receiver's name matches the
#: paired pattern; ``.commit()`` is the SQLite fsync and always counts.
import re as _re

_BLOCKING_ATTR_RECV = {
    "get": _re.compile(r"queue", _re.IGNORECASE),
    "put": _re.compile(r"queue", _re.IGNORECASE),
    "join": _re.compile(
        r"(thread|proc|worker|pool|executor|queue)", _re.IGNORECASE
    ),
    "result": _re.compile(
        r"(future|thread|proc|worker|pool|executor)", _re.IGNORECASE
    ),
    "wait": _re.compile(
        r"(event|cond|barrier|future|proc)", _re.IGNORECASE
    ),
}

#: Nondeterminism sources for the taint pass (kind, human label).
from repro.lint.rules.determinism import WALL_CLOCK_CALLS

TAINT_SOURCE_CALLS: Dict[str, Tuple[str, str]] = {}
for _name in WALL_CLOCK_CALLS:
    TAINT_SOURCE_CALLS[_name] = ("clock", f"{_name}()")
for _name in (
    "repro.exec.telemetry.default_clock",
    "repro.faults.retry.default_monotonic",
):
    TAINT_SOURCE_CALLS[_name] = ("clock", f"{_name}()")
for _name in (
    "os.urandom", "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
    "secrets.token_hex", "secrets.token_urlsafe", "secrets.randbits",
):
    TAINT_SOURCE_CALLS[_name] = ("entropy", f"{_name}()")
for _name in ("os.getpid", "os.getppid"):
    TAINT_SOURCE_CALLS[_name] = ("process", f"{_name}()")

#: ``self._clock()``-style attribute calls treated as clock sources.
CLOCK_ATTR_NAMES = frozenset(
    {"clock", "_clock", "monotonic", "_monotonic", "now", "_now"}
)


def module_dotted(rel: str, root_pkg: str) -> str:
    """``service/scheduler.py`` -> ``repro.service.scheduler``."""
    parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([root_pkg] + [p for p in parts if p])


def _snip(module: ModuleSource, line: int) -> str:
    return module.snippet(line)


def _annotation_classes(node: ast.AST, imports: Dict[str, str]) -> List[str]:
    """Canonical class names an annotation may denote: ``A`` itself, or
    every member of ``Union[A, B]``, ``Optional[A]`` and ``A | B``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        members = [node.left, node.right]
    elif isinstance(node, ast.Subscript) and canonical(
        dotted_name(node.value), imports
    ) in ("typing.Union", "typing.Optional"):
        inner = node.slice
        members = list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
    else:
        name = canonical(dotted_name(node), imports)
        return [name] if name else []
    out: List[str] = []
    for member in members:
        for name in _annotation_classes(member, imports):
            if name not in out:
                out.append(name)
    return out


def _lock_kind(factory: str) -> Optional[str]:
    if factory in LOCK_FACTORIES:
        return factory.rsplit(".", 1)[-1]  # Lock / RLock / Condition
    return None


class _Extractor:
    """One module -> one JSON summary (pure function of the source)."""

    def __init__(self, module: ModuleSource, root_pkg: str):
        self.module = module
        self.root_pkg = root_pkg
        self.dotted = module_dotted(module.rel, root_pkg)
        self.imports = module.imports
        self.toplevel_funcs: Set[str] = set()
        self.toplevel_classes: Set[str] = set()
        self.summary: Dict = {
            "module": self.dotted,
            "rel": module.rel,
            "display": module.display,
            "imports": [],
            "names": {},
            "module_locks": {},
            "classes": {},
            "functions": {},
        }

    # ------------------------------------------------------------ helpers

    def _canon(self, node: ast.AST) -> Optional[str]:
        return canonical(dotted_name(node), self.imports)

    def extract(self) -> Dict:
        tree = self.module.tree
        raw_imports: List[str] = []
        for node in self.module.nodes:
            if isinstance(node, ast.Import):
                raw_imports.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                raw_imports.append(node.module)
                raw_imports.extend(
                    f"{node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name != "*"
                )
        self.summary["imports"] = sorted(
            {i for i in raw_imports if i.split(".")[0] == self.root_pkg}
        )
        self.summary["names"] = {
            k: v
            for k, v in sorted(self.imports.items())
            if v.split(".")[0] == self.root_pkg
        }

        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.toplevel_funcs.add(stmt.name)
            elif isinstance(stmt, ast.ClassDef):
                self.toplevel_classes.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                self._module_lock(stmt)

        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                self._extract_class(stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(
                    stmt, f"{self.dotted}.{stmt.name}", None, {}
                )
        return self.summary

    def _module_lock(self, stmt: ast.Assign) -> None:
        if not isinstance(stmt.value, ast.Call):
            return
        kind = _lock_kind(self._canon(stmt.value.func) or "")
        if kind is None:
            return
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                self.summary["module_locks"][target.id] = {
                    "kind": kind,
                    "line": stmt.lineno,
                }

    # ------------------------------------------------------------- classes

    def _extract_class(self, cls: ast.ClassDef) -> None:
        bases = []
        for base in cls.bases:
            name = self._canon(base)
            if name:
                bases.append(name)
        lock_attrs: Dict[str, Dict] = {}
        methods: List[str] = []
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
            elif isinstance(stmt, ast.Assign) and isinstance(
                stmt.value, ast.Call
            ):
                kind = _lock_kind(self._canon(stmt.value.func) or "")
                if kind:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            lock_attrs[target.id] = {
                                "kind": kind,
                                "line": stmt.lineno,
                                "alias": None,
                            }
        # Locks and typed attributes built in __init__:
        # ``self._x = threading.Lock()``; ``threading.Condition(self._l)``
        # aliases onto the wrapped lock; ``self._store = ResultStore(...)``
        # and ``self._store = store`` (annotated param) type the attribute
        # so method calls through it resolve.
        attr_types: Dict[str, str] = {}
        for stmt in cls.body:
            if (
                isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                and stmt.name == "__init__"
            ):
                param_ann: Dict[str, str] = {}
                for arg in list(stmt.args.args) + list(stmt.args.kwonlyargs):
                    if arg.annotation is not None:
                        ann = self._canon(arg.annotation)
                        if ann:
                            param_ann[arg.arg] = ann
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Assign):
                        continue
                    if isinstance(node.value, ast.Name):
                        ann = param_ann.get(node.value.id)
                        if ann:
                            for target in node.targets:
                                attr = _self_attr(target)
                                if attr:
                                    attr_types.setdefault(attr, ann)
                        continue
                    if not isinstance(node.value, ast.Call):
                        continue
                    name = self._canon(node.value.func) or ""
                    kind = _lock_kind(name)
                    if kind is None:
                        if name and name.rsplit(".", 1)[-1][:1].isupper():
                            for target in node.targets:
                                attr = _self_attr(target)
                                if attr:
                                    attr_types.setdefault(attr, name)
                        continue
                    alias = None
                    if kind == "Condition" and node.value.args:
                        wrapped = node.value.args[0]
                        if (
                            isinstance(wrapped, ast.Attribute)
                            and isinstance(wrapped.value, ast.Name)
                            and wrapped.value.id == "self"
                        ):
                            alias = wrapped.attr
                    for target in node.targets:
                        attr = _self_attr(target)
                        if attr:
                            lock_attrs[attr] = {
                                "kind": kind,
                                "line": node.lineno,
                                "alias": alias,
                            }
        self.summary["classes"][cls.name] = {
            "line": cls.lineno,
            "bases": bases,
            "methods": sorted(methods),
            "lock_attrs": lock_attrs,
            "attr_types": attr_types,
        }
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(
                    stmt,
                    f"{self.dotted}.{cls.name}.{stmt.name}",
                    cls.name,
                    {},
                )

    # ----------------------------------------------------------- functions

    def _extract_function(
        self,
        fn: ast.AST,
        qname: str,
        cls_name: Optional[str],
        enclosing_locks: Dict[str, str],
    ) -> None:
        _FunctionExtractor(self, fn, qname, cls_name, enclosing_locks).run()


class _FunctionExtractor:
    """Single-pass, flow-sensitive walk of one function body.

    Tracks, along the statement order: the set of lock references held
    (``with`` scopes), local variable types (constructor calls,
    ``with ... as`` bindings, annotations), set-typed locals (for
    hash-order taint) and local taint descriptors.
    """

    def __init__(self, mx: _Extractor, fn, qname, cls_name, enclosing_locks):
        self.mx = mx
        self.fn = fn
        self.qname = qname
        self.cls_name = cls_name
        self.enclosing_locks = dict(enclosing_locks)
        self.params: List[str] = [a.arg for a in fn.args.args]
        self.local_locks: Dict[str, Dict] = {}
        self.var_types: Dict[str, str] = {}
        self.var_calls: Dict[str, str] = {}
        self.set_vars: Set[str] = set()
        self.taint: Dict[str, List[Dict]] = {}
        self.local_defs: Set[str] = set()
        self.out: Dict = {
            "line": fn.lineno,
            "cls": cls_name,
            "name": fn.name,
            "params": self.params,
            "returns_cls": [],
            "acquires": [],
            "calls": [],
            "blocking": [],
            "returns": [],
            "self_sets": [],
            "local_locks": {},
        }
        if fn.returns is not None:
            self.out["returns_cls"] = _annotation_classes(
                fn.returns, mx.imports
            )
        for arg in list(fn.args.args) + list(fn.args.kwonlyargs):
            if arg.annotation is not None:
                ann = canonical(dotted_name(arg.annotation), mx.imports)
                if ann:
                    self.var_types[arg.arg] = ann
        for stmt in fn.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.local_defs.add(stmt.name)

    def run(self) -> None:
        for stmt in self.fn.body:
            self._stmt(stmt, [])
        self.mx.summary["functions"][self.qname] = self.out

    # ------------------------------------------------------------ lock refs

    def _lock_ref(self, node: ast.AST) -> Optional[Dict]:
        """A lock-acquisition *candidate* reference, or None."""
        attr = _self_attr(node)
        if attr is not None:
            if self.cls_name is None:
                return None
            return {"k": "self", "attr": attr, "cls": self.cls_name}
        if isinstance(node, ast.Name):
            if node.id in self.local_locks:
                return {"k": "lockid", "id": f"{self.qname}.{node.id}"}
            if node.id in self.enclosing_locks:
                return {"k": "lockid", "id": self.enclosing_locks[node.id]}
            if node.id in self.mx.summary["module_locks"]:
                return {"k": "global", "name": f"{self.mx.dotted}.{node.id}"}
            mapped = self.mx.imports.get(node.id)
            if mapped and mapped.split(".")[0] == self.mx.root_pkg:
                return {"k": "global", "name": mapped}
        return None

    # ------------------------------------------------------------ statements

    def _stmt(self, node: ast.AST, held: List[Dict]) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            new_held = list(held)
            for item in node.items:
                ctx_attr = _self_attr(item.context_expr)
                if ctx_attr is not None and "conn" in ctx_attr:
                    ref = None  # a connection, never a lock
                else:
                    ref = self._lock_ref(item.context_expr)
                if ref is None and isinstance(item.context_expr, ast.Call):
                    callee = item.context_expr.func
                    if isinstance(callee, ast.Attribute):
                        recv_ref = self._lock_ref(callee.value)
                        if recv_ref is not None and callee.attr in (
                            "acquire",
                        ):
                            ref = recv_ref
                if ref is not None:
                    self.out["acquires"].append(
                        {
                            "ref": ref,
                            "line": item.context_expr.lineno,
                            "held": list(new_held),
                            "snip": _snip(
                                self.mx.module, item.context_expr.lineno
                            ),
                        }
                    )
                    new_held.append(ref)
                else:
                    # ``with self._conn:`` — sqlite's connection context
                    # manager commits on exit: an implicit blocking write.
                    if ctx_attr is not None and "conn" in ctx_attr:
                        self.out["blocking"].append(
                            {
                                "what": "sqlite transaction (with conn)",
                                "line": item.context_expr.lineno,
                                "held": list(new_held),
                                "recv": None,
                                "snip": _snip(
                                    self.mx.module,
                                    item.context_expr.lineno,
                                ),
                            }
                        )
                    descs = self._expr(item.context_expr, new_held)
                    if item.optional_vars is not None and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        self._bind(
                            item.optional_vars.id, item.context_expr, descs
                        )
            for stmt in node.body:
                self._stmt(stmt, new_held)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = dict(self.enclosing_locks)
            for var, info in self.local_locks.items():
                scope[var] = f"{self.qname}.{var}"
            self.mx._extract_function(
                node, f"{self.qname}.{node.name}", self.cls_name, scope
            )
            return
        if isinstance(node, ast.ClassDef):
            return  # function-local classes: out of scope
        if isinstance(node, ast.Assign):
            descs = self._expr(node.value, held)
            for target in node.targets:
                self._assign_target(target, node.value, descs, held)
            return
        if isinstance(node, ast.AugAssign):
            descs = self._expr(node.value, held)
            if isinstance(node.target, ast.Name):
                self._merge_taint(node.target.id, descs)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                descs = self._expr(node.value, held)
                if isinstance(node.target, ast.Name):
                    self._assign_target(node.target, node.value, descs, held)
            if isinstance(node.target, ast.Name) and node.annotation is not None:
                ann = canonical(dotted_name(node.annotation), self.mx.imports)
                if ann:
                    self.var_types[node.target.id] = ann
            return
        if isinstance(node, ast.Return):
            if node.value is not None:
                descs = self._expr(node.value, held)
                for d in descs:
                    if d not in self.out["returns"]:
                        self.out["returns"].append(d)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._expr(node.iter, held)
            if self._is_set_expr(node.iter) and isinstance(
                node.target, ast.Name
            ):
                self._merge_taint(
                    node.target.id,
                    [
                        {
                            "t": "src",
                            "kind": "set-order",
                            "what": "iteration over a set",
                            "line": node.lineno,
                        }
                    ],
                )
            for stmt in node.body + node.orelse:
                self._stmt(stmt, held)
            return
        if isinstance(node, ast.Expr):
            self._expr(node.value, held)
            return
        # Generic statements: walk expression children, recurse statements.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._stmt(child, held)
            elif isinstance(child, ast.expr):
                self._expr(child, held)
            elif isinstance(
                child, (ast.excepthandler, ast.match_case)
            ):
                self._stmt(child, held)

    def _assign_target(self, target, value, descs, held) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, value, descs)
            return
        attr = _self_attr(target)
        if attr is not None:
            local_src = [d for d in descs if d.get("t") == "src"]
            if local_src:
                entry = {
                    "attr": attr,
                    "taint": local_src[0],
                    "line": target.lineno,
                }
                if entry not in self.out["self_sets"]:
                    self.out["self_sets"].append(entry)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for el in target.elts:
                self._assign_target(el, value, descs, held)

    def _bind(self, var: str, value: ast.AST, descs: List[Dict]) -> None:
        self.taint[var] = list(descs)
        if self._is_set_expr(value):
            self.set_vars.add(var)
        else:
            self.set_vars.discard(var)
        self.var_types.pop(var, None)
        self.var_calls.pop(var, None)
        if isinstance(value, ast.Call):
            name = canonical(dotted_name(value.func), self.mx.imports)
            kind = _lock_kind(name or "")
            if kind is not None:
                self.local_locks[var] = {"kind": kind, "line": value.lineno}
                self.out["local_locks"][f"{self.qname}.{var}"] = {
                    "kind": kind,
                    "line": value.lineno,
                }
                return
            if name:
                if name.startswith("self.") and self.cls_name is not None:
                    # Self-method result: qualify so the assembler can
                    # chase the method's return annotation.
                    name = (
                        f"{self.mx.dotted}.{self.cls_name}."
                        + name.split(".", 1)[1]
                    )
                head = name.rsplit(".", 1)[-1]
                if head[:1].isupper():
                    self.var_types[var] = name  # constructor-ish
                else:
                    self.var_calls[var] = name  # typed via return annotation

    # ---------------------------------------------------------- expressions

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_vars
        if isinstance(node, ast.Call):
            return canonical(dotted_name(node.func), self.mx.imports) in (
                "set",
                "frozenset",
            )
        return False

    def _merge_taint(self, var: str, descs: List[Dict]) -> None:
        cur = self.taint.setdefault(var, [])
        for d in descs:
            if d not in cur and len(cur) < 4:
                cur.append(d)

    def _expr(self, node: ast.AST, held: List[Dict]) -> List[Dict]:
        if node is None:
            return []
        if isinstance(node, ast.Call):
            return self._call(node, held)
        if isinstance(node, ast.Name):
            if node.id in self.taint:
                return list(self.taint[node.id])
            if node.id in self.params:
                return [{"t": "param", "i": self.params.index(node.id)}]
            return []
        if isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is not None and self.cls_name is not None:
                return [{"t": "attr", "attr": attr}]
            return self._expr(node.value, held)
        if isinstance(node, ast.Lambda):
            return []
        descs: List[Dict] = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                for d in self._expr(child, held):
                    if d not in descs and len(descs) < 4:
                        descs.append(d)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter, held)
                if self._is_set_expr(child.iter):
                    descs.append(
                        {
                            "t": "src",
                            "kind": "set-order",
                            "what": "comprehension over a set",
                            "line": node.lineno,
                        }
                    )
        return descs

    def _call_ref(self, node: ast.Call) -> Optional[Dict]:
        """A project-resolvable callee reference, or None."""
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.local_defs:
                return {"k": "direct", "name": f"{self.qname}.{name}"}
            if (
                name in self.mx.toplevel_funcs
                or name in self.mx.toplevel_classes
            ):
                return {"k": "direct", "name": f"{self.mx.dotted}.{name}"}
            mapped = self.mx.imports.get(name)
            if mapped and mapped.split(".")[0] == self.mx.root_pkg:
                return {"k": "direct", "name": mapped}
            return None
        if isinstance(func, ast.Attribute):
            recv = func.value
            recv_attr = _self_attr(recv)
            if recv_attr is None and isinstance(recv, ast.Name):
                if recv.id == "self" and self.cls_name:
                    pass  # handled below as method
                if recv.id in self.var_types:
                    return {
                        "k": "typed",
                        "cls": self.var_types[recv.id],
                        "attr": func.attr,
                    }
                if recv.id in self.var_calls:
                    return {
                        "k": "var",
                        "callee": self.var_calls[recv.id],
                        "attr": func.attr,
                    }
            if (
                isinstance(recv, ast.Name)
                and recv.id == "self"
                and self.cls_name is not None
            ):
                return {
                    "k": "method",
                    "cls": self.cls_name,
                    "attr": func.attr,
                }
            recv_attr = _self_attr(recv)
            if recv_attr is not None and self.cls_name is not None:
                # self._store.write_transaction(...): resolved through
                # the class's inferred attribute types at assembly time.
                return {
                    "k": "selfattr",
                    "cls": self.cls_name,
                    "attr": recv_attr,
                    "method": func.attr,
                }
            name = canonical(dotted_name(func), self.mx.imports)
            if name and name.split(".")[0] == self.mx.root_pkg:
                return {"k": "direct", "name": name}
        return None

    def _call(self, node: ast.Call, held: List[Dict]) -> List[Dict]:
        name = canonical(dotted_name(node.func), self.mx.imports) or ""
        func = node.func

        # Lock .acquire() outside a with: an ordering event, unscoped.
        if isinstance(func, ast.Attribute) and func.attr == "acquire":
            recv_ref = self._lock_ref(func.value)
            if recv_ref is not None:
                self.out["acquires"].append(
                    {
                        "ref": recv_ref,
                        "line": node.lineno,
                        "held": list(held),
                        "snip": _snip(self.mx.module, node.lineno),
                    }
                )

        # Blocking primitives.
        blocked = None
        recv_ref = None
        if name in BLOCKING_CALLS:
            blocked = name
        elif name.startswith(BLOCKING_PREFIXES):
            blocked = name
        elif isinstance(func, ast.Attribute):
            if func.attr == "commit":
                blocked = "sqlite commit"
            elif func.attr in _BLOCKING_ATTR_RECV:
                recv_name = (dotted_name(func.value) or "").split(".")[-1]
                if _BLOCKING_ATTR_RECV[func.attr].search(recv_name or ""):
                    blocked = f"{recv_name}.{func.attr}()"
                recv_ref = self._lock_ref(func.value)
                if func.attr == "wait" and recv_ref is not None:
                    blocked = f"{dotted_name(func.value)}.wait()"
        if blocked is not None:
            self.out["blocking"].append(
                {
                    "what": blocked,
                    "line": node.lineno,
                    "held": list(held),
                    "recv": recv_ref,
                    "snip": _snip(self.mx.module, node.lineno),
                }
            )

        # Taint sources.
        src = TAINT_SOURCE_CALLS.get(name)
        if src is None and name.startswith("random."):
            src = ("random", f"{name}()")
        if src is None and name.startswith("numpy.random."):
            src = ("random", f"{name}()")
        if src is None and name == "id" and isinstance(func, ast.Name):
            src = ("id", "id()")
        if src is None and isinstance(func, ast.Attribute):
            attr = _self_attr(func.value)
            if attr is None and func.attr in CLOCK_ATTR_NAMES:
                pass
            if func.attr in CLOCK_ATTR_NAMES and not node.args:
                recv_txt = dotted_name(func) or func.attr
                src = ("clock", f"{recv_txt}()")
        if (
            src is None
            and isinstance(func, ast.Name)
            and func.id in CLOCK_ATTR_NAMES
            and not node.args
        ):
            src = ("clock", f"{func.id}()")
        if src is not None:
            for arg in node.args:
                self._expr(arg, held)
            return [
                {
                    "t": "src",
                    "kind": src[0],
                    "what": src[1],
                    "line": node.lineno,
                }
            ]

        # Evaluate arguments (always, for nested calls/sources).
        arg_descs: List[Tuple[object, List[Dict]]] = []
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                self._expr(arg.value, held)
                continue
            arg_descs.append((i, self._expr(arg, held)))
        for kw in node.keywords:
            arg_descs.append((kw.arg or "**", self._expr(kw.value, held)))

        # A local function passed as an argument is (for a may-analysis)
        # assumed to be invoked by the callee — this is how transaction
        # callbacks (``self._retry(attempt)``) join the call graph.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name) and arg.id in self.local_defs:
                self.out["calls"].append(
                    {
                        "callee": {
                            "k": "direct",
                            "name": f"{self.qname}.{arg.id}",
                        },
                        "line": node.lineno,
                        "held": list(held),
                        "args": [],
                        "snip": _snip(self.mx.module, node.lineno),
                    }
                )

        ref = self._call_ref(node)
        if ref is not None:
            entry = {
                "callee": ref,
                "line": node.lineno,
                "held": list(held),
                "args": [
                    [key, descs[0]]
                    for key, descs in arg_descs
                    if descs
                ],
                "snip": _snip(self.mx.module, node.lineno),
            }
            self.out["calls"].append(entry)
            return [{"t": "call", "c": len(self.out["calls"]) - 1}]

        # External/builtin call: heuristic pass-through of argument taint
        # (sorted() launders set-order; everything else propagates).
        merged: List[Dict] = []
        for _, descs in arg_descs:
            for d in descs:
                if name == "sorted" and d.get("kind") == "set-order":
                    continue
                if d not in merged and len(merged) < 4:
                    merged.append(d)
        if name in ("list", "tuple", "enumerate") and node.args:
            if self._is_set_expr(node.args[0]):
                merged.append(
                    {
                        "t": "src",
                        "kind": "set-order",
                        "what": f"{name}(<set>)",
                        "line": node.lineno,
                    }
                )
        return merged


def extract_summary(module: ModuleSource, root_pkg: str = "repro") -> Dict:
    """Extract the analysis summary for one parsed module."""
    return _Extractor(module, root_pkg).extract()


# ======================================================== graph assembly


class ProjectGraph:
    """Whole-program view assembled from per-module summaries."""

    def __init__(self, summaries: Sequence[Dict], root_pkg: str = "repro"):
        self.root_pkg = root_pkg
        self.modules: Dict[str, Dict] = {}
        for s in summaries:
            self.modules[s["module"]] = s
        # Class index: dotted class name -> record.
        self.classes: Dict[str, Dict] = {}
        self._bare_classes: Dict[str, List[str]] = {}
        self.functions: Dict[str, Dict] = {}
        self._bare_funcs: Dict[str, List[str]] = {}
        for mod, s in self.modules.items():
            for cname, c in s["classes"].items():
                dotted = f"{mod}.{cname}"
                self.classes[dotted] = {**c, "module": mod, "name": cname}
                self._bare_classes.setdefault(cname, []).append(dotted)
            for qname, f in s["functions"].items():
                self.functions[qname] = f
                self._bare_funcs.setdefault(
                    qname.rsplit(".", 1)[-1], []
                ).append(qname)
        # Resolve bases + subclass map.
        self.subclasses: Dict[str, List[str]] = {}
        for dotted, c in sorted(self.classes.items()):
            for base in c["bases"]:
                resolved = self.resolve_class(base)
                if resolved:
                    self.subclasses.setdefault(resolved, []).append(dotted)
        self._lock_index: Optional[Dict[str, Dict]] = None
        self._import_edges: Optional[List[Tuple[str, str]]] = None
        self._call_edges: Optional[Dict[str, List[Tuple[str, int]]]] = None
        self._lock_analysis = None

    # ----------------------------------------------------------- resolution

    def _chase_reexport(self, name: str) -> Optional[str]:
        """``repro.store.ResultStore`` -> ``repro.store.warehouse.ResultStore``."""
        head, _, tail = name.rpartition(".")
        mod = self.modules.get(head)
        if mod is None or not tail:
            return None
        target = mod["names"].get(tail)
        if target and target != name:
            return target
        return None

    def resolve_class(self, name: Optional[str], _depth: int = 0) -> Optional[str]:
        if not name or _depth > 4:
            return None
        if name in self.classes:
            return name
        chased = self._chase_reexport(name)
        if chased:
            return self.resolve_class(chased, _depth + 1)
        bare = name.rsplit(".", 1)[-1]
        candidates = self._bare_classes.get(bare, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_function(self, name: Optional[str], _depth: int = 0) -> Optional[str]:
        if not name or _depth > 4:
            return None
        if name in self.functions:
            return name
        chased = self._chase_reexport(name)
        if chased:
            return self.resolve_function(chased, _depth + 1)
        return None

    def mro(self, dotted_cls: str) -> List[str]:
        """Approximate linearisation: the class then BFS over bases."""
        out, queue = [], [dotted_cls]
        while queue:
            cur = queue.pop(0)
            if cur in out:
                continue
            out.append(cur)
            c = self.classes.get(cur)
            if c:
                for base in c["bases"]:
                    resolved = self.resolve_class(base)
                    if resolved:
                        queue.append(resolved)
        return out

    def resolve_method(self, dotted_cls: str, attr: str) -> Optional[str]:
        for cls in self.mro(dotted_cls):
            c = self.classes.get(cls)
            if c and attr in c["methods"]:
                return f"{cls}.{attr}"
        return None

    def _method_with_overrides(self, dotted_cls: str, attr: str) -> List[str]:
        """The statically-resolved method plus project subclass overrides."""
        out: List[str] = []
        base = self.resolve_method(dotted_cls, attr)
        if base:
            out.append(base)
        stack = [dotted_cls]
        seen = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            for sub in self.subclasses.get(cur, []):
                c = self.classes.get(sub)
                if c and attr in c["methods"]:
                    q = f"{sub}.{attr}"
                    if q not in out:
                        out.append(q)
                stack.append(sub)
        return out

    def resolve_call(self, ref: Dict, module: str) -> List[str]:
        """Callee qnames for one extracted call reference (may be [])."""
        kind = ref.get("k")
        if kind == "direct":
            name = ref["name"]
            fn = self.resolve_function(name)
            if fn:
                return [fn]
            cls = self.resolve_class(name)
            if cls:
                init = self.resolve_method(cls, "__init__")
                return [init] if init else []
            # Maybe a method spelled Class.method or mod.Class.method.
            head, _, tail = name.rpartition(".")
            cls = self.resolve_class(head)
            if cls and tail:
                return self._method_with_overrides(cls, tail)
            return []
        if kind == "method":
            cls = self.resolve_class(f"{module}.{ref['cls']}")
            if cls:
                return self._method_with_overrides(cls, ref["attr"])
            return []
        if kind == "typed":
            cls = self.resolve_class(ref["cls"])
            if cls:
                return self._method_with_overrides(cls, ref["attr"])
            return []
        if kind == "selfattr":
            cls = self.resolve_class(f"{module}.{ref['cls']}")
            if cls:
                for candidate in self.mro(cls):
                    c = self.classes.get(candidate)
                    ann = (c or {}).get("attr_types", {}).get(ref["attr"])
                    if ann:
                        owner = self.resolve_class(ann)
                        if owner:
                            return self._method_with_overrides(
                                owner, ref["method"]
                            )
                        break
            return []
        if kind == "var":
            fn = self.resolve_function(ref["callee"])
            if fn is None:
                # Inherited method: resolve the class, then the MRO.
                head, _, tail = ref["callee"].rpartition(".")
                owner = self.resolve_class(head)
                if owner and tail:
                    fn = self.resolve_method(owner, tail)
            # A Union/Optional return resolves against every member.
            out: List[str] = []
            for ann in self.functions[fn]["returns_cls"] if fn else ():
                cls = self.resolve_class(ann)
                if cls is None:
                    continue
                for callee in self._method_with_overrides(cls, ref["attr"]):
                    if callee not in out:
                        out.append(callee)
            return out
        return []

    # ----------------------------------------------------------- lock model

    def lock_index(self) -> Dict[str, Dict]:
        """Every abstract lock: id -> {kind, rel, display, line}."""
        if self._lock_index is not None:
            return self._lock_index
        index: Dict[str, Dict] = {}
        for mod, s in sorted(self.modules.items()):
            for name, info in sorted(s["module_locks"].items()):
                index[f"{mod}.{name}"] = {
                    "kind": info["kind"],
                    "rel": s["rel"],
                    "display": s["display"],
                    "line": info["line"],
                }
            for cname, c in sorted(s["classes"].items()):
                for attr, info in sorted(c["lock_attrs"].items()):
                    if info.get("alias"):
                        continue  # Condition(self._x): not its own lock
                    index[f"{mod}.{cname}.{attr}"] = {
                        "kind": info["kind"],
                        "rel": s["rel"],
                        "display": s["display"],
                        "line": info["line"],
                    }
            for qname, f in sorted(s["functions"].items()):
                for lock_id, info in sorted(
                    f.get("local_locks", {}).items()
                ):
                    index[lock_id] = {
                        "kind": info["kind"],
                        "rel": s["rel"],
                        "display": s["display"],
                        "line": info["line"],
                    }
        # Backstop for lockid refs pointing at enclosing-scope locks.
        for mod, s in sorted(self.modules.items()):
            for qname, f in sorted(s["functions"].items()):
                for acq in f["acquires"]:
                    ref = acq["ref"]
                    if ref.get("k") == "lockid" and ref["id"] not in index:
                        index[ref["id"]] = {
                            "kind": "Lock",
                            "rel": s["rel"],
                            "display": s["display"],
                            "line": acq["line"],
                        }
        self._lock_index = index
        return index

    def resolve_lock(self, ref: Dict, module: str) -> Optional[str]:
        """Lock id for an acquisition reference, chasing Condition aliases."""
        kind = ref.get("k")
        index = self.lock_index()
        if kind == "lockid":
            return ref["id"] if ref["id"] in index else None
        if kind == "global":
            name = ref["name"]
            if name in index:
                return name
            chased = self._chase_reexport(name)
            if chased and chased in index:
                return chased
            return None
        if kind == "self":
            cls = self.resolve_class(f"{module}.{ref['cls']}")
            if cls is None:
                return None
            attr = ref["attr"]
            for candidate in self.mro(cls):
                c = self.classes.get(candidate)
                if not c:
                    continue
                info = c["lock_attrs"].get(attr)
                if info is None:
                    continue
                if info.get("alias"):
                    attr = info["alias"]
                    info = c["lock_attrs"].get(attr)
                    if info is None:
                        continue
                return f"{candidate}.{attr}"
            return None
        return None

    # --------------------------------------------------------------- graphs

    def import_edges(self) -> List[Tuple[str, str]]:
        """Sorted (importer, imported) pairs over project modules."""
        if self._import_edges is not None:
            return self._import_edges
        known = set(self.modules)
        edges: Set[Tuple[str, str]] = set()
        for mod, s in self.modules.items():
            for raw in s["imports"]:
                target = raw
                while target and target not in known:
                    target = target.rpartition(".")[0]
                if target and target != mod:
                    edges.add((mod, target))
        self._import_edges = sorted(edges)
        return self._import_edges

    def call_edges(self) -> Dict[str, List[Tuple[str, int]]]:
        """Resolved call graph: qname -> sorted (callee qname, line)."""
        if self._call_edges is not None:
            return self._call_edges
        edges: Dict[str, List[Tuple[str, int]]] = {}
        for mod, s in sorted(self.modules.items()):
            for qname, f in sorted(s["functions"].items()):
                out: Set[Tuple[str, int]] = set()
                for call in f["calls"]:
                    for callee in self.resolve_call(call["callee"], mod):
                        if callee != qname:
                            out.add((callee, call["line"]))
                edges[qname] = sorted(out)
        self._call_edges = edges
        return edges

    def module_of_function(self, qname: str) -> Optional[Dict]:
        parts = qname.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            if mod in self.modules:
                return self.modules[mod]
        return None

    def lock_analysis(self, config: Optional[LintConfig] = None):
        if self._lock_analysis is None:
            self._lock_analysis = LockAnalysis(self)
        return self._lock_analysis

    def to_json(self) -> Dict:
        """Deterministic dump used by golden tests and ``--dump-graph``."""
        analysis = self.lock_analysis()
        return {
            "modules": sorted(self.modules),
            "imports": [list(e) for e in self.import_edges()],
            "calls": {
                q: [list(e) for e in edges]
                for q, edges in sorted(self.call_edges().items())
                if edges
            },
            "locks": {
                lid: {"kind": info["kind"], "line": info["line"]}
                for lid, info in sorted(self.lock_index().items())
            },
            "lock_edges": analysis.edges_json(),
        }


# ===================================================== lock-order analysis


class LockAnalysis:
    """Interprocedural lock-order + held-lock blocking analysis."""

    def __init__(self, graph: ProjectGraph):
        self.graph = graph
        #: qname -> {lock_id: ("local", line) | ("via", callee, line)}
        self.may_acquire: Dict[str, Dict[str, Tuple]] = {}
        #: qname -> {what: ("local", line) | ("via", callee, line)}
        self.may_block: Dict[str, Dict[str, Tuple]] = {}
        #: (src_lock, dst_lock) -> witness dict
        self.edges: Dict[Tuple[str, str], Dict] = {}
        #: blocking findings raw material
        self.blocking_sites: List[Dict] = []
        self._run()

    # ------------------------------------------------------------- fixpoint

    def _resolved_events(self, qname: str, f: Dict, module: str):
        acquires = []
        for acq in f["acquires"]:
            lock = self.graph.resolve_lock(acq["ref"], module)
            if lock is None:
                continue
            held = []
            for ref in acq["held"]:
                h = self.graph.resolve_lock(ref, module)
                if h is not None and h not in held:
                    held.append(h)
            acquires.append(
                {
                    "lock": lock,
                    "line": acq["line"],
                    "held": held,
                    "snip": acq.get("snip", ""),
                }
            )
        calls = []
        for call in f["calls"]:
            callees = self.graph.resolve_call(call["callee"], module)
            if not callees:
                continue
            held = []
            for ref in call["held"]:
                h = self.graph.resolve_lock(ref, module)
                if h is not None and h not in held:
                    held.append(h)
            calls.append(
                {
                    "callees": [c for c in callees if c != qname],
                    "line": call["line"],
                    "held": held,
                    "snip": call.get("snip", ""),
                }
            )
        blocking = []
        for blk in f["blocking"]:
            held = []
            for ref in blk["held"]:
                h = self.graph.resolve_lock(ref, module)
                if h is not None and h not in held:
                    held.append(h)
            recv_lock = (
                self.graph.resolve_lock(blk["recv"], module)
                if blk.get("recv")
                else None
            )
            # Condition.wait on a held lock *releases* it: sanctioned.
            if recv_lock is not None and recv_lock in held:
                continue
            blocking.append(
                {
                    "what": blk["what"],
                    "line": blk["line"],
                    "held": held,
                    "snip": blk.get("snip", ""),
                }
            )
        return acquires, calls, blocking

    def _run(self) -> None:
        graph = self.graph
        resolved: Dict[str, Tuple] = {}
        for mod, s in sorted(graph.modules.items()):
            for qname, f in sorted(s["functions"].items()):
                resolved[qname] = self._resolved_events(qname, f, mod)

        # Fixpoint: may_acquire / may_block close over the call graph.
        may_acquire = {q: {} for q in resolved}
        may_block = {q: {} for q in resolved}
        for qname, (acquires, calls, blocking) in resolved.items():
            for acq in acquires:
                may_acquire[qname].setdefault(
                    acq["lock"], ("local", acq["line"])
                )
            for blk in blocking:
                may_block[qname].setdefault(
                    blk["what"], ("local", blk["line"])
                )
        changed = True
        iterations = 0
        while changed and iterations < 50:
            changed = False
            iterations += 1
            for qname, (acquires, calls, blocking) in resolved.items():
                for call in calls:
                    for callee in call["callees"]:
                        for lock in may_acquire.get(callee, ()):  # noqa: B007
                            if lock not in may_acquire[qname]:
                                may_acquire[qname][lock] = (
                                    "via", callee, call["line"],
                                )
                                changed = True
                        for what in may_block.get(callee, ()):
                            if what not in may_block[qname]:
                                may_block[qname][what] = (
                                    "via", callee, call["line"],
                                )
                                changed = True
        self.may_acquire = may_acquire
        self.may_block = may_block

        # Edges + blocking sites.
        index = graph.lock_index()
        for qname in sorted(resolved):
            acquires, calls, blocking = resolved[qname]
            s = graph.module_of_function(qname) or {}
            display = s.get("display", "")
            for acq in acquires:
                for held in acq["held"]:
                    self._edge(
                        held, acq["lock"], qname, display, acq["line"],
                        acq["snip"], [],
                    )
            for call in calls:
                if not call["held"]:
                    continue
                for callee in call["callees"]:
                    for lock, wit in sorted(
                        self.may_acquire.get(callee, {}).items()
                    ):
                        for held in call["held"]:
                            self._edge(
                                held, lock, qname, display, call["line"],
                                call["snip"], [callee],
                            )
                    blocks = self.may_block.get(callee, {})
                    if blocks:
                        what = sorted(blocks)[0]
                        self.blocking_sites.append(
                            {
                                "fn": qname,
                                "display": display,
                                "line": call["line"],
                                "snip": call["snip"],
                                "held": call["held"],
                                "what": what,
                                "via": callee,
                                "chain": self._chain(callee, what),
                            }
                        )
            for blk in blocking:
                if not blk["held"]:
                    continue
                self.blocking_sites.append(
                    {
                        "fn": qname,
                        "display": display,
                        "line": blk["line"],
                        "snip": blk["snip"],
                        "held": blk["held"],
                        "what": blk["what"],
                        "via": None,
                        "chain": [],
                    }
                )

    def _edge(self, src, dst, qname, display, line, snip, via) -> None:
        if src == dst:
            kind = self.graph.lock_index().get(src, {}).get("kind", "Lock")
            if kind in ("RLock", "Condition"):
                return  # re-entrant: not a self-deadlock
        key = (src, dst)
        if key in self.edges:
            return
        self.edges[key] = {
            "fn": qname,
            "display": display,
            "line": line,
            "snip": snip,
            "via": list(via),
        }

    def _chain(self, callee: str, what: str, limit: int = 6) -> List[str]:
        """Witness call chain from ``callee`` down to a blocking primitive."""
        chain = [callee]
        cur = callee
        for _ in range(limit):
            wit = self.may_block.get(cur, {}).get(what)
            if wit is None or wit[0] == "local":
                break
            cur = wit[1]
            chain.append(cur)
        return chain

    def acquire_chain(self, qname: str, lock: str, limit: int = 6) -> List[str]:
        chain: List[str] = []
        cur = qname
        for _ in range(limit):
            wit = self.may_acquire.get(cur, {}).get(lock)
            if wit is None or wit[0] == "local":
                break
            cur = wit[1]
            chain.append(cur)
        return chain

    # --------------------------------------------------------------- cycles

    def cycles(self) -> List[List[str]]:
        """Elementary cycles (as sorted SCCs) in the lock-order graph."""
        adj: Dict[str, Set[str]] = {}
        nodes: Set[str] = set()
        for (src, dst) in self.edges:
            nodes.add(src)
            nodes.add(dst)
            adj.setdefault(src, set()).add(dst)
        # Tarjan SCC, iterative, deterministic by sorted node order.
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(start: str) -> None:
            work = [(start, iter(sorted(adj.get(start, ()))))]
            index[start] = low[start] = counter[0]
            counter[0] += 1
            stack.append(start)
            on_stack.add(start)
            while work:
                v, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(sorted(adj.get(w, ())))))
                        advanced = True
                        break
                    if w in on_stack:
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work.pop()
                if low[v] == index[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == v:
                            break
                    if len(scc) > 1 or (v, v) in self.edges:
                        sccs.append(sorted(scc))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])

        for node in sorted(nodes):
            if node not in index:
                strongconnect(node)
        return sorted(sccs)

    def edges_json(self) -> List[Dict]:
        out = []
        for (src, dst), wit in sorted(self.edges.items()):
            out.append(
                {
                    "from": src,
                    "to": dst,
                    "fn": wit["fn"],
                    "line": wit["line"],
                    "via": wit["via"],
                }
            )
        return out

    # ------------------------------------------------------------- findings

    def cycle_findings(self, rule_id: str) -> List[Finding]:
        findings = []
        for scc in self.cycles():
            witness_edges = [
                (src, dst)
                for (src, dst) in sorted(self.edges)
                if src in scc and dst in scc
            ]
            first = witness_edges[0]
            wit = self.edges[first]
            steps = "; ".join(
                f"{s} -> {d} ({self.edges[(s, d)]['fn']}:"
                f"{self.edges[(s, d)]['line']})"
                for s, d in witness_edges
            )
            findings.append(
                Finding(
                    rule=rule_id,
                    path=wit["display"],
                    line=wit["line"],
                    message=(
                        "potential deadlock: lock-order cycle over "
                        + " / ".join(scc)
                        + f" — {steps}"
                    ),
                    snippet=wit["snip"],
                )
            )
        return findings

    def blocking_findings(self, rule_id: str) -> List[Finding]:
        findings = []
        seen: Set[Tuple[str, int, str]] = set()
        for site in self.blocking_sites:
            key = (site["display"], site["line"], site["what"])
            if key in seen:
                continue
            seen.add(key)
            held = ", ".join(sorted(site["held"]))
            if site["via"]:
                chain = " -> ".join(site["chain"])
                message = (
                    f"{site['what']} reached while holding {held}: "
                    f"call chain {chain} blocks with the lock held"
                )
            else:
                message = f"{site['what']} while holding {held}"
            findings.append(
                Finding(
                    rule=rule_id,
                    path=site["display"],
                    line=site["line"],
                    message=message,
                    snippet=site["snip"],
                )
            )
        return findings


def build_graph(
    summaries: Sequence[Dict], root_pkg: str = "repro"
) -> ProjectGraph:
    """Assemble the project graph from extracted summaries."""
    return ProjectGraph(summaries, root_pkg=root_pkg)


def render_graph(graph: ProjectGraph, what: str) -> str:
    """Deterministic text dump for ``repro lint --dump-graph``."""
    lines: List[str] = []
    if what == "imports":
        for src, dst in graph.import_edges():
            lines.append(f"{src} -> {dst}")
    elif what == "calls":
        for qname, edges in sorted(graph.call_edges().items()):
            for callee, line in edges:
                lines.append(f"{qname}:{line} -> {callee}")
    elif what == "locks":
        analysis = graph.lock_analysis()
        for lid, info in sorted(graph.lock_index().items()):
            lines.append(
                f"lock {lid} [{info['kind']}] {info['display']}:{info['line']}"
            )
        for edge in analysis.edges_json():
            via = f" via {'>'.join(edge['via'])}" if edge["via"] else ""
            lines.append(
                f"order {edge['from']} -> {edge['to']} "
                f"({edge['fn']}:{edge['line']}{via})"
            )
        for scc in analysis.cycles():
            lines.append("CYCLE " + " / ".join(scc))
    else:
        raise ValueError(f"unknown graph {what!r}")
    return "\n".join(lines)


__all__ = [
    "BLOCKING_CALLS",
    "LockAnalysis",
    "ProjectGraph",
    "TAINT_SOURCE_CALLS",
    "build_graph",
    "extract_summary",
    "module_dotted",
    "render_graph",
]
