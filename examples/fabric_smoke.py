#!/usr/bin/env python3
"""Fabric smoke test: coordinator + two worker processes, verified.

The distributed campaign fabric across real process boundaries (CI runs
this):

1. boot ``repro fabric serve`` (the coordinator's HTTP service) on a
   free port,
2. boot two ``repro fabric worker`` subprocesses against it, each with
   its own in-memory simulation cache,
3. submit a conformance campaign through :class:`ServiceClient` and
   stream its progress events live,
4. assert the warehouse contents are bit-identical to the same campaign
   run through the single-process :class:`Scheduler`,
5. resubmit the identical spec and assert it is fully cache-served —
   the rerun adds zero trial rows,
6. SIGTERM the workers and the coordinator and require clean exits.

Run:  python examples/fabric_smoke.py
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

from repro.service import ServiceClient  # noqa: E402
from repro.service.scheduler import (  # noqa: E402
    DONE,
    TERMINAL_STATES,
    Scheduler,
)
from repro.service.specs import parse_campaign_spec  # noqa: E402
from repro.store import ResultStore  # noqa: E402

SPEC = {
    "kind": "conformance",
    "stacks": ["quiche", "xquic"],
    "ccas": ["cubic"],
    "duration_s": 4,
    "trials": 2,
    "run": "fabric-smoke",
}


def wait_for_listening_line(proc, timeout_s=60.0):
    """Parse the coordinator URL from the serve subprocess's stdout."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"fabric serve exited early (code {proc.poll()})"
            )
        print(f"  serve: {line.rstrip()}")
        if "listening on " in line:
            return line.split("listening on ", 1)[1].split()[0]
    raise SystemExit("fabric serve never printed its listening line")


def snapshots(path):
    """Every trial payload in a warehouse, as raw comparable bytes."""
    with ResultStore(str(path)) as store:
        return {
            key: store.get_trial(key).tobytes()
            for key in store.trial_keys()
        }


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-fabric-smoke-"))
    db = workdir / "store.db"

    child_env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONUNBUFFERED="1",
    )

    print(f"[1/6] booting repro fabric serve (store: {db}) ...")
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "fabric", "serve",
         "--db", str(db), "--port", "0", "--lease-ttl", "10"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=child_env,
        cwd=str(ROOT),
    )
    workers = []
    try:
        url = wait_for_listening_line(serve)
        client = ServiceClient(url)
        assert client.health()["status"] == "ok"

        print("[2/6] booting two fabric workers ...")
        for i in range(2):
            workers.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "fabric", "worker",
                 "--url", url, "--store", str(db),
                 "--name", f"smoke-w{i}", "--poll", "0.2", "--ttl", "10"],
                env=child_env,
                cwd=str(ROOT),
            ))

        print(f"[3/6] submitting a conformance campaign to {url} ...")
        campaign = client.submit(SPEC)
        for event in client.stream(campaign["id"]):
            if event["event"] == "trial":
                print(f"  [{event['done']}/{event['total']}] "
                      f"{event['label']}: {event['status']}")
            elif event["event"] == "state":
                print(f"  state -> {event['state']}")
        final = client.status(campaign["id"])
        assert final["state"] == "done", final
        status = client.fabric_status()
        assert status["states"].get("done") == 1, status

        print("[4/6] comparing against a single-process scheduler run ...")
        single = Scheduler(str(workdir / "direct.db"), workers=1)
        job = single.submit(parse_campaign_spec(SPEC))
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            if single.job(job.id).state in TERMINAL_STATES:
                break
            time.sleep(0.1)
        assert single.job(job.id).state == DONE, single.job(job.id).state
        single.shutdown(drain=True)
        via_fabric = snapshots(db)
        direct = snapshots(workdir / "direct.db")
        assert via_fabric, "fabric run stored no trials"
        assert via_fabric == direct, \
            "fabric trials diverge from the single-process path"
        print(f"  {len(via_fabric)} trial payloads bit-identical")

        print("[5/6] resubmitting the identical spec (cache-served) ...")
        rerun = client.submit(SPEC)
        assert rerun["id"] != campaign["id"]
        assert client.wait(rerun["id"], timeout_s=300.0)["state"] == "done"
        assert snapshots(db) == via_fabric, \
            "identical resubmission added trial rows"
        print("  rerun added zero trial rows")

        print("[6/6] SIGTERM workers and coordinator -> clean exits ...")
        for proc in workers:
            proc.send_signal(signal.SIGTERM)
        for proc in workers:
            code = proc.wait(timeout=60)
            assert code == 0, f"worker exited {code} on SIGTERM"
        serve.send_signal(signal.SIGTERM)
        code = serve.wait(timeout=120)
        assert code == 0, f"fabric serve exited {code} on SIGTERM"
        print("fabric smoke: OK")
    finally:
        for proc in [serve] + workers:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


if __name__ == "__main__":
    main()
