"""Crash-recovery integration: real SIGKILLs, bit-identical recovery.

Two process-boundary scenarios the fault injector cannot fully fake:

* a worker process SIGKILLed mid-trial (the OOM-killer scenario) — the
  executor must retry on a fresh worker and the warehouse must end up
  bit-identical to an uninterrupted run;
* the whole service process SIGKILLed mid-campaign — a restarted service
  must ``resume_pending`` from the journal and finish the campaign with
  a store bit-identical to one that was never interrupted.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.exec import Executor, Job
from repro.faults.breaker import reset_breakers
from repro.faults.retry import RetryPolicy
from repro.service.client import ServiceClient
from repro.store import ResultStore, StoreCache, ingest_manifest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _fresh_breakers():
    reset_breakers()
    yield
    reset_breakers()


# --------------------------------------------------------------- job fns
# Module-level so they pickle under the spawn start method.


def _deterministic_payload(x: float) -> np.ndarray:
    return np.sin(np.arange(64, dtype=np.float64) * x)


def _sigkill_once_then(marker: str, x: float) -> np.ndarray:
    """SIGKILL our own process the first time; compute normally after."""
    path = Path(marker)
    if not path.exists():
        path.write_text("killed")
        time.sleep(0.2)  # let the "start" report flush to the parent
        os.kill(os.getpid(), signal.SIGKILL)
    return _deterministic_payload(x)


def _compute(x: float) -> np.ndarray:
    return _deterministic_payload(x)


class TestWorkerSigkill:
    def test_sigkilled_worker_recovers_bit_identical(self, tmp_path):
        jobs = 3
        marker = tmp_path / "kill-once"

        def joblist(fn, extra=()):
            out = []
            for n in range(jobs):
                args = tuple(extra) + (0.1 + n,)
                out.append(Job(fn=fn, args=args, key=f"trial-{n}"))
            return out

        # Interrupted run: the first attempt of the first job takes a
        # real SIGKILL mid-trial; the pool replaces the worker and
        # retries.  Results flow into a warehouse via the store sink.
        faulted_db = tmp_path / "faulted.db"
        with ResultStore(faulted_db) as store:
            cache = StoreCache(store)
            with Executor(
                jobs=2,
                cache=cache,
                retry=RetryPolicy(max_attempts=3, backoff_s=0.01),
                store=store,
                store_run="recovery",
                manifest_path=tmp_path / "manifest.jsonl",
            ) as executor:
                values = executor.run(
                    joblist(_sigkill_once_then, extra=(str(marker),)),
                    campaign="sigkill-worker",
                )
        assert marker.exists()  # the kill really happened
        assert any(r.retried for r in executor.last_records)
        assert all(r.status == "ok" for r in executor.last_records)

        # Uninterrupted run into a fresh warehouse.
        clean_db = tmp_path / "clean.db"
        with ResultStore(clean_db) as store:
            cache = StoreCache(store)
            with Executor(jobs=1, cache=cache, store=store,
                          store_run="recovery") as executor:
                clean_values = executor.run(
                    joblist(_compute), campaign="clean"
                )

        for a, b in zip(values, clean_values):
            assert a.tobytes() == b.tobytes()
        with ResultStore(faulted_db) as fa, ResultStore(clean_db) as cl:
            assert fa.trial_keys() == cl.trial_keys()
            for key in cl.trial_keys():
                a = fa.get_trial(key, strict=True)
                b = cl.get_trial(key, strict=True)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_manifest_of_killed_campaign_ingests(self, tmp_path):
        marker = tmp_path / "kill-once"
        with Executor(
            jobs=2,
            cache=StoreCache(ResultStore(tmp_path / "s.db")),
            retry=RetryPolicy(max_attempts=3, backoff_s=0.01),
            manifest_path=tmp_path / "manifest.jsonl",
        ) as executor:
            executor.run(
                [Job(fn=_sigkill_once_then, args=(str(marker), 0.5), key="k")],
                campaign="killed",
            )
        with ResultStore(tmp_path / "ingest.db") as scratch:
            report = ingest_manifest(scratch, tmp_path / "manifest.jsonl")
        assert report.events >= 3  # start, job, end all readable


# ---------------------------------------------------------------- service


# Sized so the campaign takes several seconds of wall clock: the SIGKILL
# below must land while trials are genuinely in flight, not after the
# campaign already drained.
SPEC = {
    "kind": "matrix",
    "stacks": ["quiche"],
    "ccas": ["cubic"],
    "conditions": [{"bandwidth_mbps": 8, "rtt_ms": 20, "buffer_bdp": 0.6}],
    "duration_s": 60,
    "trials": 2,
    "run": "sigkill-service",
}


def _boot_serve(db: Path):
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONUNBUFFERED="1",
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--db", str(db),
         "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(ROOT),
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"serve exited early (code {proc.poll()}) before listening"
            )
        if "listening on " in line:
            return proc, line.split("listening on ", 1)[1].split()[0]
    proc.kill()
    raise RuntimeError("serve never printed its listening line")


def _wait_done(client: ServiceClient, campaign_id: str, timeout_s: float) -> dict:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        snapshot = client.status(campaign_id)
        if snapshot["state"] in ("done", "failed", "cancelled"):
            return snapshot
        time.sleep(0.25)
    raise AssertionError(f"campaign {campaign_id} never finished")


def _store_snapshot(db: Path) -> dict:
    with ResultStore(db) as store:
        return {
            key: store.get_trial(key, strict=True).tobytes()
            for key in store.trial_keys()
        }


class TestServiceSigkill:
    def test_sigkilled_service_resumes_and_matches_clean_run(self, tmp_path):
        # Clean reference: the same campaign run to completion without
        # interruption, in its own warehouse.
        clean_db = tmp_path / "clean.db"
        proc, url = _boot_serve(clean_db)
        try:
            client = ServiceClient(url)
            accepted = client.submit(SPEC)
            final = _wait_done(client, accepted["id"], timeout_s=300.0)
            assert final["state"] == "done"
        finally:
            proc.kill()
            proc.wait(timeout=10)
        clean = _store_snapshot(clean_db)
        assert clean  # the campaign stored trials

        # Interrupted run: SIGKILL the whole service while the campaign
        # is running — no drain, no journal flush, nothing graceful.
        db = tmp_path / "killed.db"
        proc, url = _boot_serve(db)
        killed_mid_flight = False
        try:
            client = ServiceClient(url)
            accepted = client.submit(SPEC)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if client.status(accepted["id"])["state"] == "running":
                    killed_mid_flight = True
                    break
                time.sleep(0.05)
            time.sleep(0.5)  # let trials actually start computing
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        assert killed_mid_flight

        # The campaign must not be done yet: the kill landed mid-run.
        with ResultStore(db) as store:
            events = [
                e["event"] for e in store.events(campaign=accepted["id"])
            ]
        assert "service_submitted" in events
        assert "service_done" not in events

        # Restart on the same warehouse: resume_pending re-queues the
        # journaled campaign and runs it to completion.
        proc, url = _boot_serve(db)
        try:
            client = ServiceClient(url)
            final = _wait_done(client, accepted["id"], timeout_s=300.0)
            assert final["state"] == "done"
        finally:
            proc.terminate()
            proc.wait(timeout=30)

        recovered = _store_snapshot(db)
        assert recovered == clean  # bit-identical reconstruction
