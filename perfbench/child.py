"""One benchmark process: set up the service, run the timed closed
loop, check every output, and write a JSON report.

``run.py`` starts this file in a fresh interpreter for every set-up and
every measurement, so no in-memory cache outlives a run.  Executor pool
workers are spawned and re-import this file as ``__mp_main__``; keep its
top level to definitions and standard-library imports.

Usage (normally only through ``run.py``)::

    python3 perfbench/child.py --workload pool-short --seed 1 \
        --seconds 25 --mode measure --trace 0 --workdir DIR --out REPORT
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before any import
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import figures  # noqa: E402
import plans  # noqa: E402
import spans  # noqa: E402

CACHE_DIR_ENV = "QUICBENCH_CACHE_DIR"
UNIT_RANGE_METRICS = ("conf", "conf_t", "conf_old")
#: What the executor warns, and the mode it journals, when its worker
#: pool cannot run and it reruns the jobs serially in-process.
POOL_FALLBACK_WARNING = "worker pool unavailable"
POOL_FALLBACK_MODE = "serial-fallback"


class Checks:
    """Named pass/fail output checks; any failure makes the run incorrect."""

    def __init__(self):
        self.results = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results)


def _filesystem(path: Path) -> str:
    """Type and mount point of the filesystem holding ``path``."""
    target = str(path.resolve())
    best = ("", "unknown")
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best[0]):
                    best = (mount, fields[2])
    except OSError:
        pass
    return f"{best[1]} on {best[0] or '?'}"


def _strip_run(rows):
    return [{k: v for k, v in row.items() if k != "run"} for row in rows]


def _digest(rows) -> str:
    lines = sorted(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _check_campaign(checks: Checks, campaign, snapshot, rows, label: str) -> bool:
    spec = campaign.spec
    ok = checks.check(
        f"{label} done", snapshot.get("state") == "done",
        f"state={snapshot.get('state')} error={snapshot.get('error')}",
    )
    ok &= checks.check(
        f"{label} cells", snapshot.get("cells") == campaign.cells,
        f"{snapshot.get('cells')} != {campaign.cells}",
    )
    ok &= checks.check(
        f"{label} trial statuses",
        snapshot.get("trial_statuses") == campaign.statuses,
        f"{snapshot.get('trial_statuses')} != {campaign.statuses}",
    )
    cells = {(r["stack"], r["cca"], r["condition"]) for r in rows}
    ok &= checks.check(
        f"{label} rows", len(cells) == campaign.cells and all(
            r["run"] == spec["run"] for r in rows
        ),
        f"{len(cells)} cells in rows",
    )
    bad = [
        r for r in rows
        if r["metric"] in UNIT_RANGE_METRICS
        and not (r["value"] is not None and 0.0 <= r["value"] <= 1.0)
    ]
    ok &= checks.check(f"{label} conformance in [0, 1]", not bad, f"{bad[:2]}")
    return ok


def _run_campaign(client, campaign):
    """Submit, wait, fetch rows: one closed-loop round trip."""
    submitted = time.perf_counter()
    accepted = client.submit(campaign.spec)
    snapshot = client.wait(accepted["id"], raise_on_failure=False)
    rows = client.metrics(campaign.spec["run"])
    return snapshot, rows, submitted, time.perf_counter()


def _recompute_serial(campaign, workdir: Path, checks: Checks, rows) -> None:
    """Re-run one pool campaign with ``exec_jobs=1`` on a fresh warehouse
    and cache; its rows must equal the pool's byte for byte."""
    from repro.service import ServiceApp, ServiceClient

    os.environ[CACHE_DIR_ENV] = str(_fresh(workdir / "cache-serial"))
    app = ServiceApp(str(workdir / "serial.db"), exec_jobs=1)
    app.start()
    try:
        client = ServiceClient(app.url, timeout_s=120.0)
        snapshot, serial_rows, _, _ = _run_campaign(client, campaign)
    finally:
        app.stop()
    checks.check("pool campaign == jobs=1 recomputation",
                 snapshot.get("state") == "done"
                 and json.dumps(serial_rows, sort_keys=True) == json.dumps(rows, sort_keys=True),
                 f"run {campaign.spec['run']}")


def _check_no_pool_fallback(checks: Checks, caught, events) -> None:
    """A pool campaign rerun serially would still give the right rows
    but drop the pool's cost, so a fallback makes the run incorrect."""
    warned = [str(w.message) for w in caught if POOL_FALLBACK_WARNING in str(w.message)]
    modes = [e.get("exec", {}).get("mode") for e in events if e.get("event") == "service_done"]
    checks.check("pool: no serial fallback",
                 not warned and POOL_FALLBACK_MODE not in modes,
                 f"warnings={warned[:1]} modes={sorted(set(map(str, modes)))}")


def _fresh(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=False)
    return path


def _exec_metrics(events) -> dict:
    """Executor figures from the per-job journal records."""
    wall = job_s = overhead = 0.0
    ran = attempts = ok = 0
    workers = 1
    campaign_job_s = 0.0
    for event in events:
        kind = event.get("event")
        if kind == "campaign_start":
            mode = str(event.get("mode", ""))
            workers = int(event.get("workers", 1)) if mode.startswith("pool") else 1
            campaign_job_s = 0.0
        elif kind == "job":
            if int(event.get("attempts", 0)) > 0:
                ran += 1
                attempts += int(event["attempts"])
                campaign_job_s += float(event.get("wall_s", 0.0))
            ok += event.get("status") == "ok"
        elif kind == "campaign_end":
            campaign_wall = float(event.get("wall_s", 0.0))
            wall += campaign_wall
            job_s += campaign_job_s
            overhead += campaign_wall - campaign_job_s / workers
    return {
        "exec.wall_s": wall,
        "exec.job_s": job_s,
        "exec.overhead_s_per_job": figures.ratio(overhead, ran),
        "exec.attempts_per_ok": figures.ratio(attempts, ok),
    }


def _layer_metrics(tracer, timed_s: float, snapshots, latencies, events) -> tuple:
    counters = tracer.counters
    busy = tracer.total("netsim.run_pair")
    analysis = tracer.total("analysis.evaluate")
    lookups = counters.get("cache.lookups", 0)
    n = max(1, len(snapshots))
    queue_wait = sum(s["started_at"] - s["submitted_at"] for s in snapshots)
    run_s = sum(s["finished_at"] - s["started_at"] for s in snapshots)
    layers = spans.campaign_split(tracer.spans, timed_s)
    metrics = {
        "netsim.busy_s": busy,
        "netsim.trials": counters.get("netsim.trials", 0),
        "netsim.packets": counters.get("netsim.packets", 0),
        "netsim.packets_per_s": figures.ratio(counters.get("netsim.packets", 0), busy),
        "netsim.events": counters.get("netsim.events", 0),
        "netsim.events_per_s": figures.ratio(counters.get("netsim.events", 0), busy),
        "sampling.busy_s": tracer.total("sampling.sample_points"),
        "sampling.calls": tracer.calls("sampling.sample_points"),
        "analysis.busy_s": analysis,
        "analysis.cells": tracer.calls("analysis.evaluate"),
        "analysis.envelope_s": tracer.total("analysis.envelope"),
        "analysis.overlap_s": tracer.total("analysis.overlap"),
        "cache.lookups": lookups,
        "cache.hit_ratio": figures.ratio(counters.get("cache.hits", 0), lookups),
        "cache.get_s": tracer.total("cache.get"),
        "cache.put_s": tracer.total("cache.put"),
        "store.write_s": tracer.total("store.write"),
        "store.read_s": tracer.total("store.read"),
        "store.writes": counters.get("store.writes", 0),
        **_exec_metrics(events),
        "service.queue_wait_s": queue_wait / n,
        "service.run_s": run_s / n,
        "service.http_s": (sum(latencies) - queue_wait - run_s) / n,
        "trace.unattributed_s": layers.get("campaign", 0.0) + layers["outside_campaigns"],
    }
    return metrics, layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    workdir = args.workdir
    os.environ[CACHE_DIR_ENV] = str(_fresh(workdir / "cache-setup"))

    from repro.service import ServiceApp, ServiceClient
    from repro.store import ResultStore

    plan = plans.plan(args.workload, args.seed, args.seconds)
    checks = Checks()
    store_path = workdir / "warehouse.db"
    report = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
              "warehouse_fs": _filesystem(workdir), "work": plan.work()}
    app = ServiceApp(str(store_path), exec_jobs=plan.exec_jobs)
    app.start()
    try:
        client = ServiceClient(app.url, timeout_s=120.0)
        checks.check("service healthy", client.health().get("status") in ("ok", "degraded"))
        fill_rows = []
        if plan.fill is not None:
            snapshot, fill_rows, _, _ = _run_campaign(client, plan.fill)
            _check_campaign(checks, plan.fill, snapshot, fill_rows, "fill")
        report["setup_s"] = time.perf_counter() - START
        if args.mode == "setup":
            report["checks"] = checks.results
            report["correct"] = checks.ok
            return _finish(args.out, report)

        # Timed phase: a second empty disk-cache directory, so warm
        # lookups can only be served by the warehouse.
        os.environ[CACHE_DIR_ENV] = str(_fresh(workdir / "cache-timed"))
        with ResultStore(store_path) as store:
            events_before = len(store.events())
        report["calib_before_s"] = figures.calibrate()
        tracer = spans.Tracer()
        if args.trace:
            tracer.install()
        snapshots, latencies, all_rows = [], [], []
        cells = failed = 0
        first_submit = last_result = None
        # Warnings are process-wide state, so this also records the ones
        # the service's worker threads raise.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                for index, campaign in enumerate(plan.campaigns):
                    try:
                        snapshot, rows, t_submit, t_result = _run_campaign(client, campaign)
                    except Exception as exc:  # noqa: BLE001 - count, report, go on
                        failed += 1
                        checks.check(f"campaign {index} round trip", False, repr(exc))
                        continue
                    first_submit = t_submit if first_submit is None else first_submit
                    last_result = t_result
                    if not _check_campaign(checks, campaign, snapshot, rows, f"campaign {index}"):
                        failed += 1
                        continue
                    cells += campaign.cells
                    snapshots.append(snapshot)
                    latencies.append(t_result - t_submit)
                    all_rows.append(rows)
            finally:
                tracer.uninstall()
        report["calib_after_s"] = figures.calibrate()
        timed_s = (last_result - first_submit) if snapshots else 0.0
        report.update(
            attempted=len(plan.campaigns), failed=failed, cells=cells,
            timed_s=timed_s, latencies=latencies,
            digest=_digest([row for rows in all_rows for row in rows]),
        )
        with ResultStore(store_path) as store:
            events = store.events()[events_before:]
        statuses = {}
        for snapshot in snapshots:
            for status, count in snapshot["trial_statuses"].items():
                statuses[status] = statuses.get(status, 0) + count
        report["trial_statuses"] = statuses
        if plan.exec_jobs > 1:
            _check_no_pool_fallback(checks, caught, events)
        if plan.fill is not None:
            fill = _strip_run(fill_rows)
            for index, rows in enumerate(all_rows):
                stacks = set(plan.campaigns[index].spec["stacks"])
                expected = [r for r in fill if r["stack"] in stacks]
                checks.check(f"campaign {index} rows == fill rows",
                             json.dumps(_strip_run(rows), sort_keys=True)
                             == json.dumps(expected, sort_keys=True))
        if args.trace:
            metrics, layers = _layer_metrics(tracer, timed_s, snapshots, latencies, events)
            report["layer_metrics"] = metrics
            report["layer_self_s"] = layers
            hit_ratio = metrics["cache.hit_ratio"]
            if plan.fill is not None:
                checks.check("warm: cache.hit_ratio == 1", hit_ratio == 1.0, f"{hit_ratio}")
                checks.check("warm: netsim.trials == 0", metrics["netsim.trials"] == 0)
            else:
                checks.check("cold: cache.hit_ratio == 0", hit_ratio == 0.0, f"{hit_ratio}")
            spans_path = args.out.parent / f"{args.workload}-seed{args.seed}.spans.jsonl"
            tracer.write(spans_path)
            report["spans_file"] = str(spans_path)
    finally:
        app.stop()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["worker_peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    )
    if plan.recompute is not None and len(all_rows) == len(plan.campaigns):
        _recompute_serial(plan.campaigns[plan.recompute], workdir, checks,
                          all_rows[plan.recompute])
    report["checks"] = checks.results
    report["correct"] = checks.ok
    return _finish(args.out, report)


def _finish(out: Path, report: dict) -> int:
    out.write_text(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
