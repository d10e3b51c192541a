#!/usr/bin/env python3
"""Fleet smoke test: rolling upgrade of a fabric fleet, verified.

The self-healing fabric across real process boundaries (CI's
fabric-smoke flow, extended to the fleet machinery):

1. boot ``repro fabric serve --db results.db`` on a free port — one
   single-file warehouse holds the queue, the runs and every trial,
2. boot two ``repro fabric worker --version v1`` subprocesses,
3. submit three conformance campaigns and, while they are in flight,
   roll the fleet to version v2 with
   :meth:`repro.fabric.supervisor.FleetSupervisor.roll` — each v1
   worker finishes its lease, deregisters and exits 0; its v2
   replacement is heartbeating before the old one is ever drained,
4. assert every campaign completed with a single lease attempt
   (nothing lost, nothing doubled by the upgrade),
5. diff the fleet's warehouse byte-for-byte against the same campaigns
   run through the single-process scheduler into a second warehouse,
6. drain the v2 fleet and SIGTERM the coordinator -> clean exits.

Run:  python examples/fleet_smoke.py
"""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.fabric.queue import WorkQueue  # noqa: E402
from repro.fabric.supervisor import FleetSupervisor  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.scheduler import (  # noqa: E402
    DONE,
    TERMINAL_STATES,
    Scheduler,
)
from repro.service.specs import parse_campaign_spec  # noqa: E402
from repro.store import ResultStore  # noqa: E402


def specs():
    """Three small campaigns with distinct trial identities."""
    return [
        {
            "kind": "conformance",
            "stacks": ["quiche"],
            "ccas": ["cubic"],
            "duration_s": 3 + i,
            "trials": 1,
            "run": "fleet-smoke",
        }
        for i in range(3)
    ]


def wait_for_listening_line(proc, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(f"fabric serve exited early (code {proc.poll()})")
        print(f"  serve: {line.rstrip()}")
        if "listening on " in line:
            return line.split("listening on ", 1)[1].split()[0]
    raise SystemExit("fabric serve never printed its listening line")


def snapshots(path):
    """Every trial payload in a warehouse, as bytes."""
    with ResultStore(path) as store:
        return {
            key: store.get_trial(key).tobytes()
            for key in store.trial_keys()
        }


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-fleet-smoke-"))
    db = workdir / "results.db"

    child_env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONUNBUFFERED="1",
    )

    print(f"[1/6] booting repro fabric serve --db {db} ...")
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "fabric", "serve",
         "--db", str(db), "--port", "0", "--lease-ttl", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=child_env,
        cwd=str(ROOT),
    )
    v1_workers = []
    v2_workers = []
    try:
        url = wait_for_listening_line(serve)
        client = ServiceClient(url)
        health = client.health()
        assert health["status"] == "ok", health

        print("[2/6] booting two v1 fabric workers ...")
        for i in range(2):
            v1_workers.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "fabric", "worker",
                 "--url", url, "--store", str(db),
                 "--name", f"smoke-w{i}", "--version", "v1",
                 "--poll", "0.2", "--ttl", "10"],
                env=child_env,
                cwd=str(ROOT),
            ))

        print(f"[3/6] submitting {len(specs())} campaigns to {url} ...")
        campaigns = [client.submit(spec) for spec in specs()]
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            registered = {w["name"] for w in client.fabric_workers()}
            if (
                {"smoke-w0", "smoke-w1"} <= registered
                and client.fabric_status()["leases"]
            ):
                break
            time.sleep(0.1)
        else:
            raise SystemExit("workers never registered and leased work")

        print("[3/6] rolling the fleet to v2 mid-campaign ...")

        def spawn(name, version):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "fabric", "worker",
                 "--url", url, "--store", str(db),
                 "--name", name, "--version", version,
                 "--poll", "0.2", "--ttl", "10"],
                env=child_env,
                cwd=str(ROOT),
            )
            print(f"  spawned {name} ({version})")
            return proc

        with WorkQueue(str(db)) as queue:
            supervisor = FleetSupervisor(queue, spawn=spawn)
            rolled = supervisor.roll("v2", timeout_s=120.0)
            v2_workers = list(supervisor.handles.values())
        assert sorted(rolled["replaced"]) == ["smoke-w0", "smoke-w1"], rolled
        print(f"  replaced {rolled['replaced']} with {rolled['spawned']}")
        for proc in v1_workers:
            code = proc.wait(timeout=60)
            assert code == 0, f"drained v1 worker exited {code}"
        print("  both v1 workers exited 0 after finishing their leases")

        print("[4/6] waiting for all campaigns to finish ...")
        for campaign in campaigns:
            final = client.wait(campaign["id"], timeout_s=300.0)
            assert final["state"] == "done", final
        workers = client.fabric_workers()
        versions = {w["name"]: w["version"] for w in workers
                    if w["state"] == "active"}
        assert set(versions.values()) == {"v2"}, versions
        with WorkQueue(str(db)) as queue:
            for campaign in campaigns:
                task = queue.task(campaign["id"])
                assert task.attempts == 1, (
                    f"{campaign['id']}: attempts={task.attempts} — the "
                    "roll turned a lease over"
                )
        print("  every campaign: done in exactly one lease attempt")

        print("[5/6] diffing against a single-process run ...")
        single = Scheduler(str(workdir / "direct.db"), workers=1)
        for spec in specs():
            job = single.submit(parse_campaign_spec(spec))
            deadline = time.monotonic() + 300.0
            while time.monotonic() < deadline:
                if single.job(job.id).state in TERMINAL_STATES:
                    break
                time.sleep(0.1)
            assert single.job(job.id).state == DONE, single.job(job.id).state
        single.shutdown(drain=True)
        via_fleet = snapshots(db)
        direct = snapshots(workdir / "direct.db")
        assert via_fleet, "fleet run stored no trials"
        assert via_fleet == direct, \
            "fleet trials diverge from the single-process path"
        with ResultStore(db) as store:
            linked = store.trial_keys("fleet-smoke")
        assert linked == sorted(via_fleet), "fleet run links other trials"
        print(f"  {len(via_fleet)} trial payloads bit-identical to the "
              "single-process run")

        print("[6/6] draining the v2 fleet, SIGTERM coordinator ...")
        for name in sorted(versions):
            client.fabric_drain(name)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if not client.fabric_workers():
                break
            time.sleep(0.2)
        assert not client.fabric_workers(), client.fabric_workers()
        for proc in v2_workers:
            code = proc.wait(timeout=60)
            assert code == 0, f"drained v2 worker exited {code}"
        serve.send_signal(signal.SIGTERM)
        code = serve.wait(timeout=120)
        assert code == 0, f"fabric serve exited {code} on SIGTERM"
        print("fleet smoke: OK")
    finally:
        for proc in [serve] + v1_workers + v2_workers:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


if __name__ == "__main__":
    main()
