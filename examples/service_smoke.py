#!/usr/bin/env python3
"""Service smoke test: boot ``repro serve``, drive it over HTTP, verify.

The full campaign-service loop as a process boundary test (CI runs this):

1. start ``repro serve`` as a subprocess on a free port,
2. submit a tiny two-stack campaign through :class:`ServiceClient`,
3. stream its progress events live,
4. fetch the stored metrics and assert they are bit-identical to the
   same campaign run directly through :func:`run_matrix`,
5. SIGTERM the service and assert a clean (exit 0) graceful drain.

Run:  python examples/service_smoke.py
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

from repro.exec import Executor  # noqa: E402
from repro.harness.cache import ResultCache  # noqa: E402
from repro.harness.matrix import run_matrix  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.service.specs import parse_campaign_spec  # noqa: E402
from repro.store import ResultStore  # noqa: E402

SPEC = {
    "kind": "matrix",
    "stacks": ["quiche", "xquic"],
    "ccas": ["cubic"],
    "conditions": [{"bandwidth_mbps": 8, "rtt_ms": 20, "buffer_bdp": 0.6}],
    "duration_s": 4,
    "trials": 2,
    "run": "smoke",
}


def wait_for_listening_line(proc, timeout_s=60.0):
    """Parse the service URL from the serve subprocess's stdout."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise SystemExit(
                f"serve exited early (code {proc.poll()}) before listening"
            )
        print(f"  serve: {line.rstrip()}")
        if "listening on " in line:
            return line.split("listening on ", 1)[1].split()[0]
    raise SystemExit("serve never printed its listening line")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="repro-service-smoke-"))
    db = workdir / "store.db"
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONUNBUFFERED="1",
    )

    print(f"[1/5] booting repro serve (store: {db}) ...")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--db", str(db),
         "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(ROOT),
    )
    try:
        url = wait_for_listening_line(proc)
        client = ServiceClient(url)
        health = client.health()
        assert health["status"] == "ok", health

        print(f"[2/5] submitting a 2-stack campaign to {url} ...")
        campaign = client.submit(SPEC)

        print("[3/5] streaming progress events ...")
        for event in client.stream(campaign["id"]):
            if event["event"] == "trial":
                print(f"  [{event['done']}/{event['total']}] "
                      f"{event['label']}: {event['status']}")
            elif event["event"] == "state":
                print(f"  state -> {event['state']}")
        final = client.status(campaign["id"])
        assert final["state"] == "done", final

        print("[4/5] comparing service metrics against a direct run_matrix ...")
        rows = client.metrics("smoke")
        via_service = {
            (r["stack"], r["cca"], r["variant"], r["condition"], r["metric"]):
                r["value"]
            for r in rows
        }
        spec = parse_campaign_spec(SPEC)
        with ResultStore(str(workdir / "direct.db")) as direct_store:
            run_matrix(
                conditions=spec.resolved_conditions(),
                implementations=spec.implementations(),
                config=spec.experiment_config(),
                executor=Executor(cache=ResultCache()),
                store=direct_store,
                store_run="direct",
            )
            direct = {
                (r.stack, r.cca, r.variant, r.condition, r.metric): r.value
                for r in direct_store.query(run="direct")
            }
        assert via_service, "service returned no metric rows"
        assert via_service == direct, "service metrics diverge from direct run"
        print(f"  {len(via_service)} metric values bit-identical")

        print("[5/5] SIGTERM -> graceful drain ...")
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=120)
        assert code == 0, f"serve exited {code} on SIGTERM"
        print("service smoke: OK")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


if __name__ == "__main__":
    main()
