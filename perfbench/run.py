"""Campaign benchmark: conformance campaigns through the service API.

Runs one workload (see README.md) and prints every metric by name and
unit, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload heatmap-cold --seed 1 \
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics: set-up is repeated in
fresh processes and its median reported, then one fresh process runs
the timed closed loop.  ``--trace 1`` prints the per-layer metrics: it
runs the loop untraced and then traced (same seed), and reports the
traced run's layer figures and the tracing overhead.

Every process gets a fresh warehouse and empty disk-cache directories
under ``perfbench/.work``, removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import figures
import plans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
#: Set-ups per end-to-end run; setup_s is their median.
SETUPS = 3
#: Every process of one run must have ended by then.
RUN_BUDGET_S = 175.0


def metric_units(trace: int) -> dict:
    """Name -> unit of the metrics a run prints, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class ChildFailed(RuntimeError):
    pass


def run_child(args, mode: str, trace: int, tag: str, deadline: float) -> dict:
    """One fresh process in its own empty work directory."""
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{tag}-", dir=WORK))
    out = WORK / f"{workdir.name}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--trace", str(trace),
        "--workdir", str(workdir), "--out", str(out),
    ]
    proc = subprocess.Popen(command, env=env, cwd=str(ROOT), start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The child's own executor workers share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or not out.exists():
        raise ChildFailed(f"{mode} process for {args.workload} exited with {code}")
    report = json.loads(out.read_text())
    out.unlink()
    return report


def end_to_end(report: dict, setups) -> tuple:
    latencies = report["latencies"]
    tail, percentile, rule_met = figures.tail(latencies)
    info = {
        "tail_percentile": percentile,
        "tail_rule_met": rule_met,
        "campaigns": len(latencies),
        "setup_samples_s": setups,
    }
    metrics = {
        "cells_per_s": figures.ratio(report["cells"], report["timed_s"]),
        "campaign_p50_s": statistics.median(latencies),
        "campaign_tail_s": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return metrics, info


def print_checks(reports) -> None:
    for report in reports:
        for check in report.get("checks", []):
            if not check["ok"]:
                print(f"CHECK FAILED [{report['mode']}]: {check['check']} {check['detail']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=plans.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    WORK.mkdir(exist_ok=True)
    # SIGTERM unwinds through run_child's cleanup, which kills the
    # child's process group.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            plain = run_child(args, "measure", 0, "plain", deadline)
            traced = run_child(args, "measure", 1, "traced", deadline)
            reports = [plain, traced]
        else:
            reports = [
                run_child(args, "setup", 0, f"setup{i}", deadline)
                for i in range(SETUPS - 1)
            ]
            reports.append(run_child(args, "measure", 0, "measure", deadline))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    final = reports[-1]
    print(f"workload {args.workload} seed {args.seed}: work {json.dumps(final['work'], sort_keys=True)}")
    print(f"warehouse filesystem: {final['warehouse_fs']}")
    statuses = final["trial_statuses"]
    failed_trials = sum(n for status, n in statuses.items() if status not in ("ok", "cached"))
    print(f"trials: {sum(statuses.values())} attempted, {failed_trials} failed "
          f"{json.dumps(statuses, sort_keys=True)}")
    print(f"output digest: sha256:{final['digest']}")
    print_checks(reports)
    calib = [r[k] for r in reports for k in ("calib_before_s", "calib_after_s") if k in r]
    if args.trace:
        metrics = dict(traced["layer_metrics"])
        metrics["exec.worker_peak_rss_mb"] = traced["worker_peak_rss_mb"]
        plain_rate = figures.ratio(plain["cells"], plain["timed_s"])
        traced_rate = figures.ratio(traced["cells"], traced["timed_s"])
        metrics["trace.overhead_ratio"] = figures.ratio(traced_rate, plain_rate)
        metrics["host.calib_s"] = statistics.median(calib)
        print(f"spans: {traced['spans_file']}")
        print(f"layer self time (s) over {traced['timed_s']:.3f} s timed:")
        for layer, seconds in sorted(traced["layer_self_s"].items(), key=lambda kv: -kv[1]):
            share = figures.ratio(seconds, traced["timed_s"])
            print(f"  {layer:<18} {seconds:10.4f}  {100 * share:5.1f}%")
    else:
        metrics, info = end_to_end(final, [r["setup_s"] for r in reports])
        print(f"campaign_tail_s is p{info['tail_percentile']:.1f} of {info['campaigns']} campaigns"
              + ("" if info["tail_rule_met"] else " (fewer than 11 campaigns: the maximum)"))
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in info['setup_samples_s'])}")
        print(f"worker peak rss: {final['worker_peak_rss_mb']:.1f} MB")
        print(f"host.calib_s: {', '.join(f'{c:.5f}' for c in calib)}")
    if set(metrics) != set(units):
        print(f"perfbench: printed metrics {sorted(metrics)} differ from BENCHMARK.json's "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    attempted = sum(r.get("attempted", 0) for r in reports if r["mode"] == "measure")
    failed = sum(r.get("failed", 0) for r in reports if r["mode"] == "measure")
    result = {
        "correct": all(r["correct"] for r in reports) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
