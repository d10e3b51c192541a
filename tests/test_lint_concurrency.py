"""Concurrency rule-pack tests against deliberately broken fixture classes.

The centrepiece is a scheduler-shaped class with a real discipline:
``self._jobs`` is written under ``self._lock`` everywhere except one
unlocked read, and one method blocks while holding the lock.  Both must
be reported at the exact file:line (the stall by the one held-lock
blocking rule, ``lock-held-blocking``).
"""

import textwrap

from repro.lint import LintConfig, lint_paths

# A deliberately broken class: line numbers below are load-bearing.
BROKEN_SCHEDULER = """\
import threading
import time


class BrokenScheduler:
    def __init__(self):
        self._lock = threading.Lock()
        self._jobs = {}

    def submit(self, job_id, job):
        with self._lock:
            self._jobs[job_id] = job

    def has_job(self, job_id):
        return job_id in self._jobs

    def drain(self):
        with self._lock:
            time.sleep(0.1)
            return dict(self._jobs)
"""
UNLOCKED_READ_LINE = 15  # `return job_id in self._jobs`
BLOCKING_CALL_LINE = 19  # `time.sleep(0.1)` under `with self._lock`


def make_project(tmp_path, files):
    root = tmp_path / "proj"
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body).lstrip("\n"))
    return LintConfig.for_root(root)


def run_lint(config):
    return lint_paths(config=config)


def findings_for(report, rule):
    return [f for f in report.findings if f.rule == rule]


# --------------------------------------------------------- lock-discipline


def test_broken_fixture_reports_both_violations_with_location(tmp_path):
    config = make_project(
        tmp_path, {"src/repro/service/broken.py": BROKEN_SCHEDULER}
    )
    report = run_lint(config)

    (unlocked,) = findings_for(report, "lock-discipline")
    assert unlocked.path.endswith("service/broken.py")
    assert unlocked.line == UNLOCKED_READ_LINE
    assert "_jobs" in unlocked.message
    assert "has_job" in unlocked.message
    assert "self._lock" in unlocked.message

    (blocking,) = findings_for(report, "lock-held-blocking")
    assert blocking.path.endswith("service/broken.py")
    assert blocking.line == BLOCKING_CALL_LINE
    assert "time.sleep" in blocking.message


def test_broken_fixture_gates_cli_exit_code(tmp_path, capsys):
    from repro.cli import main

    config = make_project(
        tmp_path, {"src/repro/service/broken.py": BROKEN_SCHEDULER}
    )
    code = main(
        [
            "lint",
            str(config.src),
            "--root",
            str(config.root),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "lock-discipline" in out
    assert "lock-held-blocking" in out
    assert f"broken.py:{UNLOCKED_READ_LINE}" in out


def test_unlocked_write_is_reported_too(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/exec/state.py": """
                import threading


                class Tracker:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._done = []

                    def finish(self, item):
                        with self._lock:
                            self._done.append(item)

                    def reset(self):
                        self._done = []
            """,
        },
    )
    (finding,) = findings_for(run_lint(config), "lock-discipline")
    assert finding.line == 14
    assert "reset" in finding.message


def test_disciplined_class_and_thread_safe_attrs_clean(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/service/good.py": """
                import queue
                import threading


                class GoodScheduler:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._cond = threading.Condition(self._lock)
                        self._jobs = {}
                        self._queue = queue.Queue()

                    def submit(self, job_id, job):
                        with self._lock:
                            self._jobs[job_id] = job
                            self._cond.notify_all()
                        # Queue is internally synchronised: unlocked use
                        # of it must not be flagged.
                        self._queue.put(job_id)

                    def wait(self):
                        with self._lock:
                            self._cond.wait(timeout=1.0)
                            return dict(self._jobs)
            """,
        },
    )
    report = run_lint(config)
    assert not findings_for(report, "lock-discipline")
    # Condition.wait releases the held lock — sanctioned, not blocking.
    assert not findings_for(report, "lock-held-blocking")


def test_lock_discipline_only_in_concurrency_dirs(tmp_path):
    config = make_project(
        tmp_path,
        # Same broken class, but netsim/ is single-threaded by design.
        {"src/repro/netsim/broken.py": BROKEN_SCHEDULER},
    )
    report = run_lint(config)
    assert not findings_for(report, "lock-discipline")
    # A stall under a lock is a stall anywhere: the held-lock blocking
    # rule is whole-program, not scoped to the concurrency dirs.
    (blocking,) = findings_for(report, "lock-held-blocking")
    assert blocking.path == "src/repro/netsim/broken.py"
    assert blocking.line == BLOCKING_CALL_LINE


# ------------------------------------------------ blocking under the lock


def test_thread_join_under_lock_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/exec/pool.py": """
                import threading


                class Pool:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._workers = []

                    def shutdown(self):
                        with self._lock:
                            for worker in self._workers:
                                worker.join()
            """,
        },
    )
    (finding,) = findings_for(run_lint(config), "lock-held-blocking")
    assert finding.line == 12
    assert "join" in finding.message


def test_blocking_outside_lock_ok(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/exec/pool.py": """
                import threading
                import time


                class Pool:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._workers = []

                    def shutdown(self):
                        with self._lock:
                            workers = list(self._workers)
                        for worker in workers:
                            worker.join()
                        time.sleep(0.01)
            """,
        },
    )
    assert not findings_for(run_lint(config), "lock-held-blocking")


def test_executor_result_under_lock_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/exec/batch.py": """
                import threading


                class Batch:
                    def __init__(self, executor):
                        self._lock = threading.Lock()
                        self._executor = executor

                    def collect(self):
                        with self._lock:
                            return self._executor.result()
            """,
        },
    )
    (finding,) = findings_for(run_lint(config), "lock-held-blocking")
    assert finding.line == 11
    assert "_executor.result()" in finding.message


# ------------------------------------------------------------ sqlite-thread


def test_check_same_thread_false_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/store/db.py": """
                import sqlite3

                def open_db(path):
                    return sqlite3.connect(path, check_same_thread=False)
            """,
        },
    )
    (finding,) = findings_for(run_lint(config), "sqlite-thread")
    assert finding.line == 4


def test_connection_passed_to_thread_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/store/worker.py": """
                import sqlite3
                import threading

                def pump(conn):
                    conn.execute("SELECT 1")

                def start(path):
                    conn = sqlite3.connect(path)
                    t = threading.Thread(target=pump, args=(conn,))
                    t.start()
                    return t
            """,
        },
    )
    flagged = findings_for(run_lint(config), "sqlite-thread")
    assert flagged
    assert all(f.line == 9 for f in flagged)


def test_per_thread_connection_ok(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/store/worker.py": """
                import sqlite3
                import threading

                def pump(path):
                    conn = sqlite3.connect(path)
                    conn.execute("SELECT 1")

                def start(path):
                    t = threading.Thread(target=pump, args=(path,))
                    t.start()
                    return t
            """,
        },
    )
    # The connection opened inside pump() belongs to the worker thread:
    # a thread-target binding its own connection is the sanctioned
    # pattern and must not be flagged.
    assert not findings_for(run_lint(config), "sqlite-thread")


# --------------------------------------------------------- raw-sleep-retry


def test_raw_sleep_retry_loop_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/exec/poller.py": """
                import time

                def wait_for(path):
                    for _ in range(5):
                        if path.exists():
                            return True
                        time.sleep(0.5)
                    return False
            """,
        },
    )
    (finding,) = findings_for(run_lint(config), "raw-sleep-retry")
    assert finding.line == 7
    assert "RetryPolicy" in finding.message


def test_raw_sleep_from_import_alias_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/service/waiter.py": """
                from time import sleep

                def backoff():
                    sleep(1.0)
            """,
        },
    )
    assert findings_for(run_lint(config), "raw-sleep-retry")


def test_sleep_inside_policy_seam_allowed(tmp_path):
    config = make_project(
        tmp_path,
        {
            # The policy's own default_sleep is the one sanctioned home
            # for time.sleep inside the concurrency dirs.
            "src/repro/faults/retry.py": """
                import time

                def default_sleep(seconds):
                    time.sleep(seconds)
            """,
        },
    )
    assert not findings_for(run_lint(config), "raw-sleep-retry")


def test_sleep_outside_concurrency_dirs_not_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/harness/demo.py": """
                import time

                def pace():
                    time.sleep(0.1)
            """,
        },
    )
    assert not findings_for(run_lint(config), "raw-sleep-retry")
