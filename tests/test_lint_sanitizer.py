"""Runtime lock-order sanitizer: catch a real deadlock-shaped fixture.

The fixtures live under a temporary ``src/repro/`` tree so the
instrumented factories treat them as project code (construction-site
filtering) and so the static graph built from the same tree shares the
``(rel, line)`` site vocabulary for the cross-check.
"""

import importlib.util
import textwrap
import threading

import pytest

from repro.lint import LintConfig
from repro.lint.engine import build_project_graph
from repro.lint.sanitizer import LockOrderSanitizer, find_cycles

_COUNTER = [0]


def load_fixture(tmp_path, body, sanitizer):
    """Write a module under src/repro/ and import it while instrumented
    (module-level locks must be constructed under the sanitizer)."""
    root = tmp_path / "proj"
    pkg = root / "src" / "repro"
    pkg.mkdir(parents=True, exist_ok=True)
    path = pkg / "deadrt.py"
    path.write_text(textwrap.dedent(body).lstrip("\n"))
    _COUNTER[0] += 1
    spec = importlib.util.spec_from_file_location(
        f"_sanitizer_fixture_{_COUNTER[0]}", path
    )
    module = importlib.util.module_from_spec(spec)
    with sanitizer:
        spec.loader.exec_module(module)
    return module, LintConfig.for_root(root)


DEADLOCK_FIXTURE = """
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
"""


def test_sanitizer_catches_deliberate_deadlock(tmp_path):
    """Running both orders (sequentially, so nothing actually hangs)
    must surface the A<->B cycle at runtime and fail the cross-check."""
    san = LockOrderSanitizer()
    module, config = load_fixture(tmp_path, DEADLOCK_FIXTURE, san)
    with san:
        module.ab()
        module.ba()
    cycles = san.runtime_cycles()
    assert len(cycles) == 1
    assert sorted(line for _, line in cycles[0]) == [3, 4]
    graph = build_project_graph(config=config)
    report = san.crosscheck(graph)
    assert not report["ok"]
    assert report["locks_instrumented"] == 2
    assert report["runtime_cycles"] and report["merged_cycles"]


def test_sanitizer_clean_consistent_order(tmp_path):
    san = LockOrderSanitizer()
    module, config = load_fixture(
        tmp_path,
        """
        import threading

        A = threading.Lock()
        B = threading.Lock()

        def ab():
            with A:
                with B:
                    pass
        """,
        san,
    )
    with san:
        for _ in range(3):
            module.ab()
    assert san.runtime_cycles() == []
    graph = build_project_graph(config=config)
    report = san.crosscheck(graph)
    assert report["ok"]
    # The one runtime edge translated onto the static lock ids.
    assert report["translated_edges"] == [
        ["repro.deadrt.A", "repro.deadrt.B"]
    ]
    assert report["untranslated_edges"] == []
    # Occurrence counting: three runs of the same ordering.
    assert report["runtime_edges"][0][2] == 3


def test_crosscheck_flags_runtime_order_contradicting_static(tmp_path):
    """Static analysis sees only ab() (edge A->B).  The test then
    acquires B-then-A directly — an order no source path shows.  The
    merge must go cyclic even though neither side alone has a cycle."""
    san = LockOrderSanitizer()
    module, config = load_fixture(
        tmp_path,
        """
        import threading

        A = threading.Lock()
        B = threading.Lock()

        def ab():
            with A:
                with B:
                    pass
        """,
        san,
    )
    with san:
        module.ab()
        with module.B:
            with module.A:
                pass
    assert san.runtime_cycles() != []  # both orders happened at runtime
    graph = build_project_graph(config=config)
    report = san.crosscheck(graph)
    assert not report["ok"]
    assert ["repro.deadrt.A", "repro.deadrt.B"] in report["static_edges"]
    assert ["repro.deadrt.B", "repro.deadrt.A"] in report["translated_edges"]
    assert report["merged_cycles"]


def test_rlock_reentrancy_records_no_edge(tmp_path):
    san = LockOrderSanitizer()
    module, _ = load_fixture(
        tmp_path,
        """
        import threading

        L = threading.RLock()

        def reenter():
            with L:
                with L:
                    pass
        """,
        san,
    )
    with san:
        module.reenter()
    assert san.edges == {}
    assert san.runtime_cycles() == []


def test_condition_on_instrumented_lock(tmp_path):
    """Condition built on a sanitized RLock must keep working: wait()
    uses the private _release_save/_acquire_restore/_is_owned protocol,
    and the held-stack must be balanced afterwards."""
    san = LockOrderSanitizer()
    module, _ = load_fixture(
        tmp_path,
        """
        import threading

        L = threading.RLock()
        OTHER = threading.Lock()

        def wait_briefly():
            cond = threading.Condition(L)
            with cond:
                cond.wait(0.01)

        def then_other():
            with OTHER:
                pass
        """,
        san,
    )
    with san:
        module.wait_briefly()
        module.then_other()
    # The held stack was balanced across wait(): acquiring OTHER after
    # the with-block must not record an L->OTHER edge.
    assert san.edges == {}


def test_condition_notify_across_threads(tmp_path):
    san = LockOrderSanitizer()
    module, _ = load_fixture(
        tmp_path,
        """
        import threading

        L = threading.RLock()
        COND = threading.Condition(L)
        READY = [False]

        def consumer():
            with COND:
                while not READY[0]:
                    COND.wait(1.0)

        def producer():
            with COND:
                READY[0] = True
                COND.notify()
        """,
        san,
    )
    with san:
        t = threading.Thread(target=module.consumer)
        t.start()
        module.producer()
        t.join(5.0)
    assert not t.is_alive()
    assert san.runtime_cycles() == []


def test_locks_held_by_other_threads_do_not_order(tmp_path):
    """Ordering is per-thread: thread 1 holding A while thread 2 takes
    B is concurrency, not an acquisition order."""
    san = LockOrderSanitizer()
    module, _ = load_fixture(
        tmp_path,
        """
        import threading

        A = threading.Lock()
        B = threading.Lock()
        """,
        san,
    )
    holding = threading.Event()
    done = threading.Event()

    def hold_a():
        with module.A:
            holding.set()
            done.wait(5.0)

    with san:
        t = threading.Thread(target=hold_a)
        t.start()
        assert holding.wait(5.0)
        with module.B:
            pass
        done.set()
        t.join(5.0)
    assert san.edges == {}


def test_stdlib_locks_not_instrumented(tmp_path):
    """queue.Queue's internal lock is constructed in stdlib code and
    must pass through untouched."""
    import queue

    san = LockOrderSanitizer()
    with san:
        q = queue.Queue()
        q.put(1)
        assert q.get() == 1
    assert san.sites == {}


def test_uninstall_restores_factories():
    orig_lock, orig_rlock = threading.Lock, threading.RLock
    san = LockOrderSanitizer()
    san.install()
    assert threading.Lock is not orig_lock
    san.uninstall()
    assert threading.Lock is orig_lock
    assert threading.RLock is orig_rlock


def test_nonblocking_acquire_failure_not_pushed(tmp_path):
    san = LockOrderSanitizer()
    module, _ = load_fixture(
        tmp_path,
        """
        import threading

        A = threading.Lock()
        B = threading.Lock()
        """,
        san,
    )
    grabbed = threading.Event()
    release = threading.Event()

    def hold():
        with module.A:
            grabbed.set()
            release.wait(5.0)

    with san:
        t = threading.Thread(target=hold)
        t.start()
        assert grabbed.wait(5.0)
        assert module.A.acquire(False) is False
        # The failed acquire must not leave A on this thread's stack:
        with module.B:
            pass
        release.set()
        t.join(5.0)
    assert san.edges == {}


def test_find_cycles_unit():
    assert find_cycles([("a", "b"), ("b", "c")]) == []
    assert find_cycles([("a", "b"), ("b", "a")]) == [["a", "b"]]
    assert find_cycles([("a", "a")]) == [["a"]]
    assert find_cycles(
        [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y")]
    ) == [["a", "b", "c"]]


def test_sanitizer_env_hookup_documented():
    """tests/conftest.py wires REPRO_LOCK_SANITIZER: keep the contract
    visible — for_package() defaults to the src/repro root."""
    san = LockOrderSanitizer.for_package()
    assert san.package_roots == ("src/repro",)


@pytest.mark.parametrize("factory", ["Lock", "RLock"])
def test_both_factories_instrumented(tmp_path, factory):
    san = LockOrderSanitizer()
    module, _ = load_fixture(
        tmp_path,
        f"""
        import threading

        L = threading.{factory}()

        def use():
            with L:
                return 1
        """,
        san,
    )
    with san:
        assert module.use() == 1
    assert list(san.sites.values()) == [factory]
