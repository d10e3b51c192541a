"""FabricWorker: lease loop, heartbeat discipline, drain, remote bundles.

The protocol-behaviour tests script the transport and stub the campaign
execution, so lease-lost / cancel / lost-beat paths are deterministic;
one end-to-end test runs a real campaign in remote mode to prove the
bundle round trip into the coordinator's store.
"""

import socket
import threading
import time
from types import SimpleNamespace


from repro.fabric.coordinator import Coordinator
from repro.fabric.queue import WorkQueue
from repro.fabric.worker import FabricWorker, HttpTransport, LocalTransport
from repro.service.client import ServiceError
from repro.service.scheduler import DONE, TERMINAL_STATES
from repro.service.specs import parse_campaign_spec

TINY = {
    "kind": "conformance",
    "stacks": ["xquic"],
    "ccas": ["cubic"],
    "duration_s": 3,
    "trials": 2,
    "run": "worker-test",
}

LEASE = {
    "campaign": "c1",
    "lease_id": "L000001.1",
    "tenant": "default",
    "spec": {"spec": TINY, "priority": 0},
    "attempt": 1,
    "expires_at": 0.0,
}


class ScriptTransport:
    """Records every protocol call; heartbeat replies come from a list."""

    def __init__(self, beats=None, beat_errors=0, leases=None):
        self.beats = list(beats or [])
        self.beat_errors = beat_errors
        #: Lease replies in order: an exception is raised, anything else
        #: returned; ``None`` (idle) once the list is used up.
        self.leases = list(leases or [])
        self.heartbeats = []
        self.completions = []
        self.failures = []
        self.deregistered = []

    def lease(self, worker, ttl_s):
        reply = self.leases.pop(0) if self.leases else None
        if isinstance(reply, Exception):
            raise reply
        return reply

    def heartbeat(self, campaign, lease_id, ttl_s, progress):
        if self.beat_errors > 0:
            self.beat_errors -= 1
            raise ServiceError(0, "connection failed: injected")
        self.heartbeats.append(list(progress))
        if self.beats:
            return self.beats.pop(0)
        return {"ok": True, "cancel": False}

    def complete(self, campaign, lease_id, summary, bundle):
        self.completions.append((campaign, lease_id, summary, bundle))
        return {"outcome": "done"}

    def fail(self, campaign, lease_id, error, retryable):
        self.failures.append((campaign, error, retryable))
        return {"outcome": "retried" if retryable else "failed"}

    def deregister(self, worker):
        self.deregistered.append(worker)
        return {"ok": True}


def scripted_worker(transport, execute):
    worker = FabricWorker(transport, name="scripted", ttl_s=0.3)
    worker._execute = execute
    return worker


def pump_progress(progress, events=40, pause=0.02):
    """Stand-in campaign: report trials until the worker aborts us."""
    record = SimpleNamespace(label="trial", status="ok")
    for i in range(events):
        progress(record, i + 1, events)
        time.sleep(pause)
    return {"cells": 1}, None


def test_idle_once_poll_returns_zero(tmp_path):
    coordinator = Coordinator(str(tmp_path / "fabric.db"))
    try:
        worker = FabricWorker(
            LocalTransport(coordinator),
            store_path=coordinator.store_path,
        )
        assert worker.run(once=True) == 0
    finally:
        coordinator.shutdown(drain=False)


def _closed_port() -> int:
    """A localhost port nothing listens on (connections are refused)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_stop_ends_the_loop_against_a_gone_coordinator():
    """A lease request to a closed port fails at once, so ``run`` sees
    ``stop()`` within about one ``poll_s`` instead of retrying the lease
    for up to a minute."""
    poll_s = 0.2
    worker = FabricWorker(
        HttpTransport(f"http://127.0.0.1:{_closed_port()}"), poll_s=poll_s
    )
    runner = threading.Thread(target=worker.run, daemon=True)
    runner.start()
    time.sleep(2 * poll_s)  # a few failed lease polls
    stopped = time.monotonic()
    worker.stop()
    runner.join(timeout=10.0)
    assert not runner.is_alive()
    assert time.monotonic() - stopped < poll_s + 1.0


class FakeTime:
    """A clock that only the worker's pauses move."""

    def __init__(self):
        self.now = 0.0
        self.pauses = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.pauses.append(seconds)
        self.now += seconds


def test_once_survives_a_transient_lease_failure():
    """One 503 on lease is backed off, not taken for an empty queue."""
    time_ = FakeTime()
    transport = ScriptTransport(
        leases=[ServiceError(503, "not ready"), dict(LEASE)]
    )
    worker = FabricWorker(
        transport, poll_s=0.5, ttl_s=5.0,
        sleep=time_.sleep, clock=time_.clock,
    )
    worker._execute = lambda lease, progress: ({"cells": 1}, None)
    assert worker.run(once=True) == 1
    assert len(transport.completions) == 1
    [pause] = time_.pauses
    assert 0.5 <= pause <= 0.75


def test_once_gives_up_on_a_lasting_lease_failure():
    """Transient failures back off from ``poll_s``, doubling up to a cap
    with a per-worker jitter, until 60 s have passed; a status that is
    not transient ends a ``once`` run at once."""
    pauses = {}
    for name in ("w1", "w2"):
        time_ = FakeTime()
        refused = [ServiceError(0, "connection refused")] * 100
        worker = FabricWorker(
            ScriptTransport(leases=refused), name=name, poll_s=0.5,
            sleep=time_.sleep, clock=time_.clock,
        )
        assert worker.run(once=True) == 0
        assert 50.0 < time_.now < 60.0
        assert all(0.5 <= p <= 7.5 for p in time_.pauses)
        assert max(time_.pauses) > 5.0  # it reached the cap
        pauses[name] = time_.pauses
    assert pauses["w1"] != pauses["w2"]  # the fleet does not poll in step

    time_ = FakeTime()
    worker = FabricWorker(
        ScriptTransport(leases=[ServiceError(404, "no fabric")]),
        sleep=time_.sleep, clock=time_.clock,
    )
    assert worker.run(once=True) == 0
    assert time_.pauses == []


def test_lease_lost_abandons_without_completion():
    transport = ScriptTransport(beats=[{"ok": False, "cancel": True}])
    worker = scripted_worker(
        transport, lambda lease, progress: pump_progress(progress)
    )
    worker._run_lease(dict(LEASE))
    # The worker must go quiet: the new lease owner reports the task.
    assert transport.completions == []
    assert transport.failures == []


def test_cancel_request_reports_non_retryable_failure():
    transport = ScriptTransport(beats=[{"ok": True, "cancel": True}])
    worker = scripted_worker(
        transport, lambda lease, progress: pump_progress(progress)
    )
    worker._run_lease(dict(LEASE))
    assert transport.completions == []
    ((campaign, error, retryable),) = transport.failures
    assert campaign == "c1"
    assert "cancel" in error
    assert retryable is False


def test_execution_error_reports_retryable_failure():
    transport = ScriptTransport()

    def explode(lease, progress):
        raise ValueError("bad campaign cell")

    worker = scripted_worker(transport, explode)
    worker._run_lease(dict(LEASE))
    ((campaign, error, retryable),) = transport.failures
    assert campaign == "c1"
    assert error == "ValueError: bad campaign cell"
    assert retryable is True


def test_drain_on_heartbeat_finishes_the_lease_then_exits():
    """A heartbeat saying ``drain`` mid-lease: the worker completes that
    lease once (no fail, no hand-over), takes no further lease,
    deregisters and returns from ``run``."""
    next_lease = dict(LEASE, campaign="c2", lease_id="L000002.1")
    transport = ScriptTransport(
        beats=[{"ok": True, "cancel": False, "drain": True}],
        leases=[dict(LEASE), next_lease],
    )

    def execute(lease, progress):
        # Keep the campaign running until the drain beat has landed.
        record = SimpleNamespace(label="trial", status="ok")
        deadline = time.monotonic() + 10.0
        done = 0
        while not transport.heartbeats and time.monotonic() < deadline:
            done += 1
            progress(record, done, done)
            time.sleep(0.02)
        return {"cells": done}, None

    worker = scripted_worker(transport, execute)
    assert worker.run(once=True) == 1
    assert worker.drained is True
    assert [c[:2] for c in transport.completions] == [("c1", "L000001.1")]
    assert transport.failures == []
    assert transport.leases == [next_lease]  # never asked for more work
    assert transport.deregistered == ["scripted"]


def test_drain_directive_on_lease_exits_without_work():
    """A ``{"drain": True}`` lease reply: ``run`` returns at once with
    no task handled, and the worker deregisters."""
    transport = ScriptTransport(leases=[{"drain": True}, dict(LEASE)])
    worker = scripted_worker(transport, lambda lease, progress: None)
    assert worker.run(once=True) == 0
    assert worker.drained is True
    assert transport.completions == [] and transport.failures == []
    assert transport.leases == [dict(LEASE)]
    assert transport.deregistered == ["scripted"]


def test_lost_heartbeat_never_drops_progress_events():
    """A failed beat re-queues its batch; the final flush delivers every
    trial event exactly once before completion."""
    transport = ScriptTransport(beat_errors=1)

    def execute(lease, progress):
        record = SimpleNamespace(label="trial", status="ok")
        for i in range(3):
            progress(record, i + 1, 3)
            time.sleep(0.12)  # span a few beat intervals (ttl/3 = 0.1s)
        return {"cells": 3}, None

    worker = scripted_worker(transport, execute)
    worker._run_lease(dict(LEASE))
    assert len(transport.completions) == 1
    delivered = [e for batch in transport.heartbeats for e in batch]
    assert [e["done"] for e in delivered] == [1, 2, 3]


def test_remote_worker_ships_result_bundle(tmp_path):
    """store_path=None: the worker runs against a scratch store and the
    coordinator ingests the bundle before flipping the queue to done."""
    coordinator = Coordinator(str(tmp_path / "fabric.db"))
    try:
        job = coordinator.submit(parse_campaign_spec(TINY))
        worker = FabricWorker(
            LocalTransport(coordinator),
            name="remote-w",
            store_path=None,
            scratch_dir=str(tmp_path / "scratch"),
            poll_s=0.05,
            ttl_s=5.0,
        )
        assert worker.run(once=True) == 1
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if coordinator.job(job.id).state in TERMINAL_STATES:
                break
            time.sleep(0.05)
        assert coordinator.job(job.id).state == DONE
        with WorkQueue(coordinator.store_path) as q:
            task = q.task(job.id)
        assert task.result["worker"] == "remote-w"
        ingest = task.result["ingest"]
        assert ingest["trials"] > 0
        from repro.store import ResultStore

        with ResultStore(coordinator.store_path) as store:
            assert store.has_run("worker-test")
            assert len(store.trial_keys()) == ingest["trials"]
    finally:
        coordinator.shutdown(drain=False)
