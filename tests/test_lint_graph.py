"""Graph-layer tests: summaries, call-graph/lock-graph builders, goldens.

The golden file pins the *entire* whole-program view (modules, import
edges, resolved calls, lock index, lock-order edges) for a fixture
package exercising every resolution mechanism: subclass
devirtualization, ``Condition(self._lock)`` aliasing, typed-attribute
(``self._helper.ping()``) and annotated-factory (``make_helper()``)
call resolution.  Any behaviour change in the builders shows up as a
readable golden diff.
"""

import json
import textwrap
from pathlib import Path

from repro.lint import LintConfig, lint_paths
from repro.lint.engine import build_project_graph
from repro.lint.graph import (
    build_graph,
    extract_summary,
    module_dotted,
    render_graph,
)
from repro.lint.rules import parse_module

FIXTURE_ROOT = Path(__file__).resolve().parent / "data" / "lintgraph"


def make_project(tmp_path, files):
    root = tmp_path / "proj"
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body).lstrip("\n"))
    return LintConfig.for_root(root)


def graph_for(config):
    return build_project_graph(config=config)


def summarize(tmp_path, body, rel="mod.py"):
    path = tmp_path / rel
    text = textwrap.dedent(body).lstrip("\n")
    path.write_text(text)
    module = parse_module(path, rel, rel, text)
    assert module is not None
    return extract_summary(module)


# ------------------------------------------------------------------ golden


def test_golden_graph():
    config = LintConfig.for_root(FIXTURE_ROOT)
    graph = graph_for(config)
    got = json.dumps(graph.to_json(), indent=2, sort_keys=True) + "\n"
    want = (FIXTURE_ROOT / "golden.json").read_text()
    assert got == want, (
        "whole-program graph changed; if intentional, regenerate "
        "tests/data/lintgraph/golden.json from graph.to_json()"
    )


def test_golden_fixture_details():
    """Spot-check the mechanisms the golden pins, with intent spelled out."""
    graph = graph_for(LintConfig.for_root(FIXTURE_ROOT))
    calls = graph.call_edges()
    # Devirtualization: Base.run's self.step() also reaches Child.step.
    targets = {c for c, _ in calls["repro.alpha.Base.run"]}
    assert "repro.alpha.Child.step" in targets
    # Typed self-attribute: self._helper.ping() resolves cross-module.
    assert "repro.beta.Helper.ping" in targets
    # Annotated factory: h = make_helper(); h.ping() resolves.
    assert ("repro.beta.Helper.ping", 33) in calls["repro.alpha.use_var"]
    # Condition(self._lock) aliases onto the lock: no _cond lock exists.
    assert "repro.alpha.Base._cond" not in graph.lock_index()
    assert "repro.alpha.Base._lock" in graph.lock_index()
    # The interprocedural edges carry their witness chains.
    edges = graph.lock_analysis().edges
    key = ("repro.alpha.Base._lock", "repro.alpha.GLOBAL_LOCK")
    assert edges[key]["via"] == ["repro.alpha.Child.step"]


# -------------------------------------------------------------- extraction


def test_module_dotted():
    assert module_dotted("service/scheduler.py", "repro") == (
        "repro.service.scheduler"
    )
    assert module_dotted("topo/__init__.py", "repro") == "repro.topo"


def test_summary_records_locks_calls_and_blocking(tmp_path):
    summary = summarize(
        tmp_path,
        """
        import threading
        import time

        LOCK = threading.Lock()

        def work():
            with LOCK:
                time.sleep(1)
        """,
    )
    assert summary["module_locks"]["LOCK"]["kind"] == "Lock"
    fn = summary["functions"]["repro.mod.work"]
    assert fn["acquires"][0]["ref"] == {"k": "global", "name": "repro.mod.LOCK"}
    blk = fn["blocking"][0]
    assert blk["what"] == "time.sleep"
    assert blk["held"] == [{"k": "global", "name": "repro.mod.LOCK"}]


def test_summary_condition_alias_and_inherited_attr(tmp_path):
    summary = summarize(
        tmp_path,
        """
        import threading

        class S:
            def __init__(self):
                self._lock = threading.RLock()
                self._cond = threading.Condition(self._lock)
        """,
    )
    attrs = summary["classes"]["S"]["lock_attrs"]
    assert attrs["_lock"]["alias"] is None
    assert attrs["_cond"]["alias"] == "_lock"


def test_summary_local_lock_and_closure(tmp_path):
    summary = summarize(
        tmp_path,
        """
        import threading

        def outer():
            lock = threading.Lock()

            def inner():
                with lock:
                    return 1

            return inner
        """,
    )
    assert summary["functions"]["repro.mod.outer"]["local_locks"] == {
        "repro.mod.outer.lock": {"kind": "Lock", "line": 4}
    }
    inner = summary["functions"]["repro.mod.outer.inner"]
    assert inner["acquires"][0]["ref"] == {
        "k": "lockid",
        "id": "repro.mod.outer.lock",
    }


def test_summary_taint_descriptors(tmp_path):
    summary = summarize(
        tmp_path,
        """
        import time

        def now():
            return time.time()

        def ident(x):
            return x
        """,
    )
    assert summary["functions"]["repro.mod.now"]["returns"] == [
        {"t": "src", "kind": "clock", "what": "time.time()", "line": 4}
    ]
    assert summary["functions"]["repro.mod.ident"]["returns"] == [
        {"t": "param", "i": 0}
    ]


# ------------------------------------------------------------- resolution


def test_reexport_resolution(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/pkg/__init__.py": """
                from repro.pkg.impl import Thing
            """,
            "src/repro/pkg/impl.py": """
                class Thing:
                    def go(self):
                        return 1
            """,
            "src/repro/user.py": """
                from repro.pkg import Thing

                def use():
                    t = Thing()
                    t.go()
            """,
        },
    )
    graph = graph_for(config)
    targets = {c for c, _ in graph.call_edges()["repro.user.use"]}
    assert "repro.pkg.impl.Thing.go" in targets


def test_inherited_lock_resolves_through_mro(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/base.py": """
                import threading

                class Base:
                    def __init__(self):
                        self._lock = threading.RLock()
            """,
            "src/repro/child.py": """
                import time

                from repro.base import Base

                class Child(Base):
                    def work(self):
                        with self._lock:
                            time.sleep(1)
            """,
        },
    )
    graph = graph_for(config)
    analysis = graph.lock_analysis()
    q = "repro.child.Child.work"
    assert "repro.base.Base._lock" in analysis.may_acquire[q]


def test_callback_argument_joins_call_graph(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/cb.py": """
                def runner(fn):
                    return fn

                def outer():
                    def task():
                        return 1

                    runner(task)
            """,
        },
    )
    graph = graph_for(config)
    targets = {c for c, _ in graph.call_edges()["repro.cb.outer"]}
    assert "repro.cb.outer.task" in targets


def test_import_edges(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/a.py": "from repro.b import x\n",
            "src/repro/b.py": "x = 1\n",
        },
    )
    graph = graph_for(config)
    assert graph.import_edges() == [("repro.a", "repro.b")]


# ------------------------------------------------------------ render/dump


def test_render_graph_locks_lists_cycles(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/dead.py": """
                import threading

                A = threading.Lock()
                B = threading.Lock()

                def ab():
                    with A:
                        with B:
                            pass

                def ba():
                    with B:
                        with A:
                            pass
            """,
        },
    )
    graph = graph_for(config)
    out = render_graph(graph, "locks")
    assert "order repro.dead.A -> repro.dead.B" in out
    assert "CYCLE repro.dead.A / repro.dead.B" in out
    assert "lock repro.dead.A [Lock]" in out


def test_render_graph_unknown_kind_raises(tmp_path):
    config = make_project(tmp_path, {"src/repro/a.py": "x = 1\n"})
    graph = graph_for(config)
    try:
        render_graph(graph, "nope")
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected ValueError")


def test_graph_survives_summary_roundtrip(tmp_path):
    """Summaries are plain JSON data: round-tripping them must
    reproduce the same graph."""
    config = LintConfig.for_root(FIXTURE_ROOT)
    report = lint_paths(config=config, keep_graph=True)
    direct = report.graph.to_json()
    summaries = [
        json.loads(json.dumps(report.graph.modules[m]))
        for m in sorted(report.graph.modules)
    ]
    rebuilt = build_graph(summaries).to_json()
    assert rebuilt == direct
