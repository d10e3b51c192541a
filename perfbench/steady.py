"""Steadiness report: run workloads repeatedly and compare with the bounds.

Runs ``run.py`` once per (set, seed, workload), interleaving workloads so
host drift lands on all of them alike, and prints each end-to-end
metric's median, quartiles and quartile spread (Q3 - Q1) / median
against its bound in BENCHMARK.json, next to ``host.calib_s`` per run.
A metric whose spread is wide while ``host.calib_s`` moves with it is
the host, not the program.  With ``--sets 2`` the seeds are run twice
and the second set's medians and output digests are compared with the
first's.

    python3 perfbench/steady.py --seeds 1-10 --sets 2 --json perfbench/.work/steady.json
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import figures

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = next((l.split("sha256:")[1] for l in lines if l.startswith("output digest")), "")
    calib = next((l for l in lines if l.startswith("host.calib_s:")), "")
    return {
        "workload": workload, "seed": seed, "result": result, "digest": digest,
        "calib": [float(c) for c in re.findall(r"[0-9.]+", calib.split(":", 1)[-1])],
    }


def report(runs, spec, label: str) -> dict:
    medians = {}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in spec_workloads(spec):
        mine = [r for r in runs if r["workload"] == workload]
        if not mine:
            continue
        print(f"\n[{label}] {workload}: {len(mine)} runs")
        for r in mine:
            metrics = r["result"]["metrics"]
            print(f"  seed {r['seed']:>3}  calib {'/'.join(f'{c:.4f}' for c in r['calib'])}  "
                  + "  ".join(f"{k}={v['value']:.4g}" for k, v in sorted(metrics.items()))
                  + f"  correct={r['result']['correct']}")
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            if len(values) < 2:
                continue
            stats = figures.quartile_spread(values)
            medians[(workload, name)] = stats["median"]
            flag = "ok" if stats["spread"] <= bound / 3 else (
                "WITHIN BOUND" if stats["spread"] <= bound else "TOO NOISY")
            print(f"  {name:<16} median {stats['median']:<10.5g} q1 {stats['q1']:<10.5g} "
                  f"q3 {stats['q3']:<10.5g} spread {100 * stats['spread']:5.1f}% "
                  f"bound {100 * bound:4.1f}%  {flag}")
    return medians


def spec_workloads(spec):
    return [w["name"] for w in spec["workloads"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = parse_seeds(args.seeds)
    sets = []
    for index in range(args.sets):
        runs = []
        for seed in seeds:
            for workload in spec_workloads(spec):
                run = one_run(workload, seed, spec["run_seconds"])
                runs.append(run)
                print(f"set {index + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(run["result"]["metrics"].items())),
                      flush=True)
        sets.append(runs)
        if args.json is not None:
            args.json.write_text(json.dumps(sets, indent=1))
    medians = [report(runs, spec, f"set {i + 1}") for i, runs in enumerate(sets)]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for i in range(1, len(sets)):
        print(f"\nset {i + 1} against set 1 (worsening as a share of set 1's median):")
        for (workload, name), first in sorted(medians[0].items()):
            second = medians[i].get((workload, name))
            if second is None:
                continue
            change = (second - first) / first
            worse = change if better[name] == "lower" else -change
            print(f"  {workload:<14} {name:<16} {first:<10.5g} -> {second:<10.5g} "
                  f"worse by {100 * worse:+6.2f}% (bound {100 * bounds[name]:.0f}%)"
                  + ("" if worse <= bounds[name] else "  EXCEEDS BOUND"))
        first_digests = {(r["workload"], r["seed"]): r["digest"] for r in sets[0]}
        same = all(first_digests.get((r["workload"], r["seed"])) == r["digest"] for r in sets[i])
        print(f"  output digests identical to set 1: {same}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
