"""Command-line interface: ``quicbench`` (or ``python -m repro``).

Subcommands mirror the paper's experiments:

* ``quicbench stacks`` — Table 1 / Table 2 stack inventory.
* ``quicbench conformance --stack quiche --cca cubic`` — one measurement
  with the full metric set and an ASCII envelope plot.
* ``quicbench heatmap --buffer 1`` — a Fig. 6 style conformance bar list.
* ``quicbench fairness --cca cubic`` — a Fig. 12 bandwidth-share matrix.
* ``quicbench intercca`` — a Fig. 13 CUBIC x BBR matrix.
* ``quicbench fixes`` — Table 4 before/after fix verification.
* ``quicbench sweep`` — the Fig. 5 cwnd-gain sweep.

Every campaign subcommand (heatmap, matrix, regression, fairness,
intercca, sweep, fixes, topo run/matrix, cca peer-matrix) turns its
flags into a campaign spec (``repro.service.specs``) and runs it through
``repro.service.scheduler.run_campaign`` — the same front door the
campaign service and the fabric workers use.  All but ``fixes`` accept
``--jobs N`` to run their trials on N worker processes (results are
identical to serial), ``--progress`` for per-job progress lines,
``--manifest PATH`` for a JSONL run log, and ``--store PATH`` to
persist trials and metrics into the ``repro.store`` results warehouse
(``--run`` names the stored run).

The warehouse itself is driven by ``quicbench store``:

* ``store ingest`` — load JSONL manifests and sideline spill files.
* ``store runs`` — list recorded runs and row counts.
* ``store query`` — filtered metric export (table, CSV, JSON).
* ``store diff`` — run-vs-run or run-vs-baseline comparison flagging
  conformance-verdict flips.
* ``store baseline`` — name a run as a regression anchor.
* ``store render`` — re-render a stored run as an SVG heatmap.
* ``store gc`` — purge trial payloads no run links to, then vacuum.

Declarative topologies (``repro.topo``) are driven by ``quicbench topo``:

* ``topo validate`` — strict-parse topology spec files, print fingerprints.
* ``topo run`` — run a topology campaign from files and/or builtin shapes.
* ``topo matrix`` — the fairness matrix: builtin shapes x CCAs.

The pluggable CCA registry (``repro.ccax``) is driven by ``quicbench cca``:

* ``cca list`` — every registered CCA with its capability record.
* ``cca describe`` — one CCA's full registration record as JSON.
* ``cca peer-matrix`` — a reference-free peer-conformance campaign:
  pairwise PE conformance, k-selected clusters and peer scores for a
  CCA group (``--modules`` loads external CCAs with zero core edits).

The long-running campaign service (``repro.service``) is driven by:

* ``quicbench serve`` — boot the HTTP API + scheduler on a warehouse.
* ``quicbench submit`` — POST a campaign spec (JSON file or stdin).
* ``quicbench watch`` — stream a campaign's live progress events.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.harness import reporting
from repro.harness.config import ExperimentConfig, NetworkCondition
from repro.harness.conformance import measure_conformance
from repro.service.specs import SpecError
from repro.stacks import registry


def _add_condition_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bandwidth", type=float, default=20.0, help="Mbps")
    parser.add_argument("--rtt", type=float, default=10.0, help="ms")
    parser.add_argument("--buffer", type=float, default=1.0, help="x BDP")


def _add_experiment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--duration", type=float, default=None, help="seconds")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)


def _add_exec_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the trial jobs (1 = serial; results "
        "are identical either way)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-job progress and an executor summary",
    )
    parser.add_argument(
        "--manifest",
        default=None,
        help="append a JSONL run manifest (per-job status and timing) here",
    )
    parser.add_argument(
        "--store",
        default=None,
        help="persist trials and metrics into this SQLite results "
        "warehouse (repro.store); safe with --jobs",
    )
    parser.add_argument(
        "--run",
        default=None,
        help="run name inside the store (default: derived from the command)",
    )


def _run_spec(args, payload: dict):
    """Run one campaign command through the campaign front door.

    Adds the protocol flags and ``--run`` to ``payload``, validates it
    into a spec, runs it with :func:`repro.service.scheduler.run_campaign`
    on the command's executor flags, and prints the executor report
    (plus the warehouse totals with ``--store``).  Returns the spec and
    the campaign summary; an invalid spec raises :class:`SpecError`.
    """
    from repro.exec import ProgressPrinter
    from repro.service.scheduler import run_campaign
    from repro.service.specs import parse_campaign_spec

    for flag, key in (("duration", "duration_s"), ("trials", "trials"),
                      ("seed", "seed")):
        if getattr(args, flag) is not None:
            payload[key] = getattr(args, flag)
    if getattr(args, "run", None):
        payload["run"] = args.run
    spec = parse_campaign_spec(payload)
    store = getattr(args, "store", None)
    summary = run_campaign(
        spec,
        store,
        getattr(args, "jobs", 1),
        ProgressPrinter() if getattr(args, "progress", False) else None,
        getattr(args, "manifest", None),
    )
    print(summary["exec"]["text"])
    if store:
        from repro.store import open_store

        with open_store(store) as warehouse:
            counts = warehouse.counts()
        print(
            f"store: {counts['trials']} trials, {counts['measurements']} "
            f"measurements across {counts['runs']} runs"
        )
    return spec, summary


def _condition_payload(args) -> List[dict]:
    return [
        {"bandwidth_mbps": args.bandwidth, "rtt_ms": args.rtt,
         "buffer_bdp": args.buffer}
    ]


def _condition(args) -> NetworkCondition:
    return NetworkCondition(
        bandwidth_mbps=args.bandwidth, rtt_ms=args.rtt, buffer_bdp=args.buffer
    )


def _config(args) -> ExperimentConfig:
    return ExperimentConfig().overridden(
        duration_s=args.duration, trials=args.trials, seed=args.seed
    )


def cmd_stacks(args) -> int:
    """Print Tables 1 and 2 (stack inventory)."""
    rows = []
    for profile in registry.STACKS.values():
        rows.append(
            [
                profile.organization,
                profile.name,
                profile.version[:12],
                "y" if profile.supports("cubic") else "-",
                "y" if profile.supports("bbr") else "-",
                "y" if profile.supports("reno") else "-",
            ]
        )
    print(
        reporting.format_table(
            ["Organization", "Stack", "Version", "CUBIC", "BBR", "Reno"],
            rows,
            title="Studied stacks and available CCAs (paper Table 1)",
        )
    )
    print()
    rows = [
        [k.organization, k.stack]
        + ["y" if f else "-" for f in (k.open_source, k.implements_cc, k.stable, k.deployed, k.studied)]
        for k in registry.KNOWN_STACKS
    ]
    print(
        reporting.format_table(
            ["Organization", "Stack", "Open", "CC", "Stable", "Deployed", "Studied"],
            rows,
            title="All known IETF QUIC stacks (paper Table 2)",
        )
    )
    return 0


def cmd_conformance(args) -> int:
    """Measure one implementation and print the full metric set."""
    measurement = measure_conformance(
        args.stack, args.cca, _condition(args), _config(args), variant=args.variant
    )
    row = measurement.row()
    print(
        reporting.format_table(
            list(row.keys()), [list(row.values())], title="Conformance measurement"
        )
    )
    if args.svg:
        from repro.viz.charts import envelope_figure

        envelope_figure(
            {
                f"{args.stack} {args.cca}": measurement.result.test_envelope,
                f"kernel {args.cca}": measurement.result.reference_envelope,
            },
            title=f"{args.stack}/{args.cca} vs reference "
            f"(Conf={measurement.conformance:.2f})",
        ).save(args.svg)
        print(f"wrote envelope figure to {args.svg}")
    if args.plot:
        pe = measurement.result.test_envelope
        print()
        print(
            reporting.format_envelope_ascii(
                pe.hulls, pe.all_points, title=f"{args.stack}/{args.cca} envelope"
            )
        )
        ref = measurement.result.reference_envelope
        print()
        print(
            reporting.format_envelope_ascii(
                ref.hulls, ref.all_points, title="kernel reference envelope"
            )
        )
    return 0


def cmd_heatmap(args) -> int:
    """Fig 6-style conformance bars for every implementation."""
    condition = _condition(args)
    _, summary = _run_spec(args, {
        "kind": "conformance",
        "conditions": _condition_payload(args),
        "run": f"heatmap:{condition.describe()}",
    })
    values = {
        (m.impl.stack, m.impl.cca): m.conformance
        for m in summary["result"].measurements
    }
    print(
        reporting.format_conformance_bars(
            values,
            title=f"Conformance at {condition.describe()} (paper Fig. 6)",
        )
    )
    return 0


def cmd_fairness(args) -> int:
    """Fig 12-style intra-CCA bandwidth-share matrix."""
    _, summary = _run_spec(args, {
        "kind": "fairness",
        "ccas": [args.cca],
        "conditions": _condition_payload(args),
        "run": f"fairness:{args.cca}@{_condition(args).describe()}",
    })
    matrix = summary["result"]
    print(
        reporting.format_heatmap(
            matrix.rows,
            matrix.cols,
            matrix.shares,
            title=f"Bandwidth shares, {args.cca} (paper Fig. 12); "
            "row value > 0.5 = row wins",
        )
    )
    aggressive = matrix.unfair_rows()
    if aggressive:
        print("\nOverly aggressive:", ", ".join(aggressive))
    return 0


def cmd_intercca(args) -> int:
    """Fig 13-style BBR x CUBIC interaction matrix."""
    _, summary = _run_spec(args, {
        "kind": "inter_cca",
        "ccas": ["bbr", "cubic"],
        "conditions": _condition_payload(args),
        "run": f"intercca:bbr-cubic@{_condition(args).describe()}",
    })
    matrix = summary["result"]
    print(
        reporting.format_heatmap(
            matrix.rows,
            matrix.cols,
            matrix.shares,
            title="BBR (rows) vs CUBIC (cols) bandwidth share (paper Fig. 13)",
        )
    )
    return 0


def cmd_fixes(args) -> int:
    """Table 4 fix verification (before/after conformance)."""
    _, summary = _run_spec(
        args, {"kind": "fixes", "conditions": _condition_payload(args)}
    )
    headers = [
        "stack", "cca", "conf", "conf-T", "dtput", "ddelay",
        "conf'", "conf-T'", "LoC", "remark",
    ]
    rows = [
        [
            r["stack"], r["cca"], r["conf_before"], r["conf_t_before"],
            r["dtput_before"], r["ddelay_before"],
            r.get("conf_after", "-"), r.get("conf_t_after", "-"),
            r["loc"] if r["loc"] is not None else "-", r["remark"],
        ]
        for r in (outcome.row() for outcome in summary["result"])
    ]
    print(reporting.format_table(headers, rows, title="Fix verification (paper Table 4)"))
    return 0


def cmd_rootcause(args) -> int:
    """Classify a stack's deviations and run the stack-level screen."""
    from repro.analysis.rootcause import classify, diagnose_stack

    profile = registry.get_stack(args.stack)
    condition = _condition(args)
    config = _config(args)
    measurements = []
    rows = []
    for cca in profile.available_ccas():
        measurement = measure_conformance(args.stack, cca, condition, config)
        measurements.append(measurement)
        hint = classify(measurement.result)
        rows.append(
            [cca, round(measurement.conformance, 2),
             round(measurement.conformance_t, 2),
             f"{measurement.result.delta_throughput_mbps:+.1f}",
             f"{measurement.result.delta_delay_ms:+.1f}",
             hint.suspect.value]
        )
    print(
        reporting.format_table(
            ["CCA", "Conf", "Conf-T", "d-tput", "d-delay", "suspected knob"],
            rows,
            title=f"Root-cause hints for {args.stack} (paper §3.3/§5 reasoning)",
        )
    )
    diagnosis = diagnose_stack(args.stack, measurements)
    print(f"\nstack-level screen: {diagnosis.rationale}")
    return 0


def cmd_regression(args) -> int:
    """Conformance across kernel milestones (§6)."""
    from repro.harness.regression import (
        MILESTONES,
        REGRESSION_RUN_PREFIX,
        flipped_verdicts,
        regression_matrix_from_store,
    )

    if args.from_store:
        if not args.store:
            print("--from-store requires --store PATH", file=sys.stderr)
            return 2
        from repro.store import open_store

        with open_store(args.store) as store:
            rows_data = regression_matrix_from_store(
                store, MILESTONES, run_prefix=args.run or REGRESSION_RUN_PREFIX
            )
        if not rows_data:
            print("store holds no complete milestone runs", file=sys.stderr)
            return 1
    else:
        payload = {
            "kind": "regression",
            "conditions": _condition_payload(args),
            "run": REGRESSION_RUN_PREFIX,
        }
        if args.stack:
            profile = registry.get_stack(args.stack)
            payload["stacks"] = [args.stack]
            payload["ccas"] = [args.cca] if args.cca else profile.available_ccas()
        _, summary = _run_spec(args, payload)
        rows_data = summary["result"]
    milestone_names = [m.name for m in MILESTONES]
    rows = [
        [r.stack, r.cca] + [round(r.conformance[m], 2) for m in milestone_names]
        + ["FLIPS" if r.verdict_flips else ""]
        for r in rows_data
    ]
    print(
        reporting.format_table(
            ["Stack", "CCA"] + milestone_names + ["verdict"],
            rows,
            title="Conformance across kernel milestones (§6 'Keeping up with the kernel')",
        )
    )
    flips = flipped_verdicts(rows_data)
    if flips:
        print("\nimplementations whose verdict depends on the kernel version:")
        for r in flips:
            print(f"  {r.stack}/{r.cca}")
    return 0


def cmd_select(args) -> int:
    """Rank kernel CCAs for an application's desired region."""
    from repro.core.apps import DesiredRegion, select_cca
    from repro.harness.conformance import reference_envelope

    condition = _condition(args)
    config = _config(args)
    region = DesiredRegion(
        max_delay_ms=args.max_delay,
        min_throughput_mbps=args.min_tput,
        label="cli",
    )
    candidates = {
        cca: reference_envelope(cca, condition, config) for cca in registry.CCAS
    }
    scores = select_cca(region, candidates)
    rows = [
        [s.name, round(s.point_fraction, 2), round(s.area_fraction, 2)]
        for s in scores
    ]
    print(
        reporting.format_table(
            ["CCA", "points in region", "area in region"],
            rows,
            title=f"CCA ranking for delay<={args.max_delay} ms, "
            f"tput>={args.min_tput} Mbps at {condition.describe()} "
            "(§6 'Extending the PE to other applications')",
        )
    )
    print(f"\nbest match: {scores[0].name}")
    return 0


def cmd_qlog(args) -> int:
    """Run one flow vs the reference and export its qlog/pcap traces."""
    from repro.harness.runner import Impl, reference_impl, run_pair
    from repro.netsim.qlog import write_qlog

    condition = _condition(args)
    config = _config(args)
    result = run_pair(
        Impl(args.stack, args.cca, args.variant),
        reference_impl(args.cca),
        condition,
        duration_s=config.duration_s,
        seed=config.seed,
    )
    write_qlog(result.first.trace, args.out, title=f"{args.stack}/{args.cca}")
    print(f"wrote qlog trace of {args.stack}/{args.cca} to {args.out}")
    print("(view with qvis: https://qvis.quictools.info)")
    if args.pcap:
        from repro.netsim.pcap import write_pcap

        count = write_pcap(result.first.trace, args.pcap)
        print(f"wrote {count}-packet pcap to {args.pcap} (open with wireshark/tcptrace)")
    return 0


def cmd_matrix(args) -> int:
    """Sweep implementations over conditions; export the dataset as CSV."""
    from repro.harness.scenarios import BUFFER_BDPS

    [condition] = _condition_payload(args)
    payload = {
        "kind": "matrix",
        "conditions": [{**condition, "buffer_bdp": b} for b in BUFFER_BDPS],
        "run": "matrix",
    }
    if args.stack:
        payload["stacks"] = [args.stack]
        payload["ccas"] = registry.get_stack(args.stack).available_ccas()
    _, summary = _run_spec(args, payload)
    result = summary["result"]
    for m in result.measurements:
        print(f"  running {m.impl.stack}/{m.impl.cca} @ {m.condition.describe()}")
    result.save_csv(args.out)
    print(f"wrote {len(result.measurements)} measurements to {args.out}")
    worst = result.worst_cells(3)
    for m in worst:
        print(
            f"  lowest conformance: {m.impl} @ {m.condition.describe()} "
            f"-> {m.conformance:.2f}"
        )
    return 0


def cmd_sweep(args) -> int:
    """Fig 5 cwnd-gain sweep for modified kernel BBR."""
    _, summary = _run_spec(args, {
        "kind": "sweep",
        "conditions": _condition_payload(args),
        "run": "sweep:cwnd_gain",
    })
    rows = [list(p.row().values()) for p in summary["result"]]
    print(
        reporting.format_table(
            ["cwnd_gain", "conf", "conf-T", "dtput", "ddelay"],
            rows,
            title="Kernel BBR cwnd-gain sweep (paper Fig. 5)",
        )
    )
    return 0


def _topo_specs_from_args(args) -> list:
    """Resolve --spec files and --shape builders into TopologySpecs."""
    from repro.topo import spec as topospec

    topologies = []
    for path in args.spec or []:
        topologies.append(topospec.load_topology_spec(path))
    for shape in args.shape or []:
        if shape not in topospec.SHAPES:
            raise topospec.TopoSpecError(
                f"unknown shape {shape!r} "
                f"(known: {', '.join(sorted(topospec.SHAPES))})"
            )
        topologies.append(topospec.SHAPES[shape](args.cca))
    if not topologies:
        raise topospec.TopoSpecError(
            "nothing to run: give --spec FILE and/or --shape NAME"
        )
    return topologies


def _print_topology_results(result: dict) -> None:
    for topo in result["topologies"]:
        rows = [
            [
                f["label"],
                round(f["share"], 3),
                round(f["tput_mbps"], 2),
                "-" if f["convergence_s"] is None else f["convergence_s"],
            ]
            for f in topo["flows"]
        ]
        print(
            reporting.format_table(
                ["flow", "share", "tput_mbps", "convergence_s"],
                rows,
                title=(
                    f"{topo['topology']} [{topo['fingerprint']}]: "
                    f"Jain {topo['jain']:.3f}, "
                    f"utilization {topo['utilization']:.3f}"
                ),
            )
        )
        print()


def cmd_topo_validate(args) -> int:
    """Validate topology spec files; print their fingerprints."""
    from repro.topo import spec as topospec

    status = 0
    for path in args.files:
        try:
            topo = topospec.load_topology_spec(path)
        except (OSError, ValueError) as exc:
            print(f"{path}: INVALID: {exc}")
            status = 1
        else:
            print(
                f"{path}: ok — {topo.name} [{topo.fingerprint()}], "
                f"{len(topo.links)} link(s), {len(topo.flows)} flow(s)"
            )
    return status


def cmd_topo_run(args) -> int:
    """Run one topology campaign (files and/or builtin shapes)."""
    from repro.topo.spec import TopoSpecError

    try:
        topologies = _topo_specs_from_args(args)
    except (TopoSpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    spec, result = _run_spec(args, {
        "kind": "topology",
        "topologies": [t.canonical() for t in topologies],
    })
    _print_topology_results(result)
    print(f"campaign {spec.fingerprint()}: {result['cells']} cells recorded")
    return 0


def cmd_topo_matrix(args) -> int:
    """Fairness matrix: every builtin shape x every requested CCA."""
    from repro.topo import spec as topospec

    ccas = args.ccas or list(registry.CCAS)
    spec, result = _run_spec(args, {
        "kind": "topology",
        "topologies": [
            topospec.SHAPES[shape](cca).canonical()
            for shape in sorted(topospec.SHAPES) for cca in ccas
        ],
        "run": "topo-matrix",
    })
    rows = [
        [
            t["topology"],
            round(t["jain"], 3),
            round(t["utilization"], 3),
            "-" if t["convergence_s"] is None else t["convergence_s"],
        ]
        for t in result["topologies"]
    ]
    print(
        reporting.format_table(
            ["topology", "jain", "utilization", "convergence_s"],
            rows,
            title="Fairness matrix (builtin shapes x CCAs)",
        )
    )
    print(f"campaign {spec.fingerprint()}: {result['cells']} cells recorded")
    return 0


def _ccax_registry(args):
    """The ccax registry, with any user modules from --modules loaded."""
    from repro.ccax import registry as ccax

    modules = getattr(args, "modules", None) or []
    if modules:
        ccax.load_modules(modules)
    return ccax


def cmd_cca_list(args) -> int:
    """List every CCA registered with repro.ccax."""
    ccax = _ccax_registry(args)
    rows = []
    for info in ccax.entries():
        caps = info.capabilities
        if caps.host_stacks == "*":
            hosts = "*"
        else:
            hosts = ",".join(caps.host_stacks) or "(deviation tables)"
        rows.append(
            [
                info.name,
                caps.family,
                info.origin,
                "yes" if caps.kernel_reference else "no",
                "yes" if caps.paced else "no",
                "yes" if caps.delay_based else "no",
                hosts,
            ]
        )
    print(
        reporting.format_table(
            ["cca", "family", "origin", "kernel-ref", "paced",
             "delay-based", "hosts"],
            rows,
            title="registered congestion-control algorithms (repro.ccax)",
        )
    )
    return 0


def cmd_cca_describe(args) -> int:
    """One CCA's full registration record, as JSON."""
    ccax = _ccax_registry(args)
    try:
        info = ccax.get(args.name)
    except ccax.UnknownCCA as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info.describe(), indent=2, sort_keys=True))
    return 0


def cmd_cca_peer_matrix(args) -> int:
    """Reference-free peer-conformance matrix for a CCA peer group."""
    spec, result = _run_spec(args, {
        "kind": "peer_conformance",
        "peers": list(args.peers),
        "host_stack": args.host_stack or "",
        "cca_modules": list(args.modules),
        "conditions": _condition_payload(args),
    })
    for group in result["peer_conformance"]:
        peers = group["peers"]
        matrix_rows = [
            [peer] + [f"{value:.3f}" for value in row]
            for peer, row in zip(peers, group["matrix"])
        ]
        print(
            reporting.format_table(
                ["peer"] + peers,
                matrix_rows,
                title=(
                    f"pairwise conformance @ {group['condition']} "
                    f"(k={group['k']})"
                ),
            )
        )
        print(
            reporting.format_table(
                ["peer", "cluster", "peer-score"],
                [
                    [peer, group["clusters"][peer],
                     f"{group['scores'][peer]:.3f}"]
                    for peer in peers
                ],
            )
        )
        print()
    if args.svg:
        import numpy as np

        from repro.viz.charts import heatmap_figure

        group = result["peer_conformance"][0]
        figure = heatmap_figure(
            group["peers"],
            group["peers"],
            np.array(group["matrix"], dtype=float),
            title=f"peer conformance @ {group['condition']}",
        )
        with open(args.svg, "w") as fh:
            fh.write(figure.to_svg())
        print(f"wrote {args.svg}")
    print(f"campaign {spec.fingerprint()}: {result['cells']} cells recorded")
    return 0


def cmd_store_ingest(args) -> int:
    """Load manifests and/or a sideline spill."""
    from repro.store import ingest_manifest, ingest_sideline, open_store

    with open_store(args.db) as store:
        for path in args.manifest:
            report = ingest_manifest(store, path, run_prefix=args.run)
            print(f"{path}: {report.summary()}")
        for path in args.sideline:
            report = ingest_sideline(store, path)
            print(f"{path}: {report.summary()}")
        if not args.manifest and not args.sideline:
            print("nothing to ingest (pass --manifest and/or --sideline)")
            return 2
    return 0


def cmd_chaos(args) -> int:
    """Run the deterministic fault-injection campaign (``repro chaos``)."""
    from repro.faults.chaos import run_chaos

    report = run_chaos(
        matrix=args.matrix,
        workdir=args.workdir,
        duration_s=args.duration,
        trials=args.trials,
        jobs=args.jobs,
        seed=args.seed,
        log=print,
    )
    print()
    print(report.summary())
    return 0 if report.ok() else 1


def cmd_store_runs(args) -> int:
    """List a warehouse's runs and overall row counts."""
    from repro.store import open_store

    with open_store(args.db) as store:
        runs = store.runs()
        baselines = {run: name for name, run in store.baselines().items()}
        rows = []
        for info in runs:
            metric_rows = store.query(run=info.id)
            subjects = {r.subject() for r in metric_rows}
            rows.append(
                [info.id, info.name, len(subjects), len(metric_rows),
                 len(store.trial_keys(info.id)),
                 baselines.get(info.name, "-"),
                 info.note or "-"]
            )
        print(
            reporting.format_table(
                ["id", "run", "subjects", "metrics", "trials", "baseline", "note"],
                rows,
                title=f"runs in {args.db}",
            )
        )
        counts = store.counts()
        print(
            f"\ntotals: {counts['runs']} runs, {counts['trials']} trials, "
            f"{counts['measurements']} measurements, "
            f"{counts['metrics']} metric values, {counts['events']} events"
        )
    return 0


def cmd_store_query(args) -> int:
    """Filtered metric export from a warehouse (table, CSV or JSON)."""
    from repro.store import QUERY_HEADERS, ResultStore, open_store

    with open_store(args.db) as store:
        rows = store.query(
            run=args.run,
            stack=args.stack,
            cca=args.cca,
            variant=args.variant,
            condition=args.condition,
            metric=args.metric,
        )
        if args.format == "csv":
            text = reporting.to_csv(
                QUERY_HEADERS, ResultStore.rows_as_lists(rows)
            )
        elif args.format == "json":
            text = ResultStore.export_json(rows)
        else:
            text = reporting.format_metric_rows(
                rows, title=f"{len(rows)} metric rows"
            )
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text if text.endswith("\n") else text + "\n")
            print(f"wrote {len(rows)} rows to {args.out}")
        else:
            print(text)
    return 0


def cmd_store_diff(args) -> int:
    """Diff two stored runs (or a run against a named baseline)."""
    from repro.store import diff_against_baseline, diff_runs, open_store

    if not args.baseline and not args.run_a:
        print("store diff needs --run-a or --baseline", file=sys.stderr)
        return 2
    with open_store(args.db) as store:
        if args.baseline:
            diff = diff_against_baseline(
                store, args.run_b, args.baseline,
                metric=args.metric, threshold=args.threshold, atol=args.atol,
            )
        else:
            diff = diff_runs(
                store, args.run_a, args.run_b,
                metric=args.metric, threshold=args.threshold, atol=args.atol,
            )
        print(reporting.format_run_diff(diff))
        if args.fail_on_flips and diff.flips:
            return 1
    return 0


def cmd_store_baseline(args) -> int:
    """Name a run as a regression anchor, or list the anchors."""
    from repro.store import open_store

    with open_store(args.db) as store:
        if args.set:
            if not args.run:
                print("--set requires --run", file=sys.stderr)
                return 2
            info = store.run(args.run)
            store.set_baseline(args.set, info)
            print(f"baseline {args.set!r} -> run {info.name!r} (id {info.id})")
            return 0
        baselines = store.baselines()
        if not baselines:
            print("no baselines set")
        for name, run_name in sorted(baselines.items()):
            print(f"{name}: {run_name}")
    return 0


def cmd_store_gc(args) -> int:
    """Purge unlinked trial payloads and vacuum the warehouse file."""
    from repro.store import open_store

    with open_store(args.db) as store:
        report = store.gc(dry_run=args.dry_run)
    verb = "would purge" if args.dry_run else "purged"
    print(
        f"{verb} {report['unlinked']} of {report['trials_total']} trials "
        f"({report['unlinked_bytes'] / 1e6:.2f} MB of payload)"
    )
    if not args.dry_run:
        print(
            f"vacuumed: {report['size_before'] / 1e6:.2f} MB -> "
            f"{report['size_after'] / 1e6:.2f} MB"
        )
    return 0


def cmd_serve(args) -> int:
    """Boot the campaign service (HTTP API + scheduler) on a warehouse."""
    from repro.service import ServiceApp

    app = ServiceApp(
        store_path=args.db,
        host=args.host,
        port=args.port,
        workers=args.workers,
        exec_jobs=args.jobs,
        max_pending=args.max_pending,
    )
    app.install_signal_handlers()
    app.start()
    if app.resumed:
        print(f"resumed {len(app.resumed)} pending campaign(s) from the journal")
    print(f"repro service listening on {app.url} (store: {args.db})", flush=True)
    app.wait()
    print("repro service stopped (pending campaigns remain journaled)")
    return 0


def _read_spec(path: str) -> dict:
    import json

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as handle:
            text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"spec is not valid JSON: {exc}")


def _print_event(event: dict) -> None:
    kind = event.get("event", "?")
    if kind == "trial":
        print(
            f"  [{event.get('done')}/{event.get('total')}] "
            f"{event.get('label')}: {event.get('status')}"
        )
    elif kind == "state":
        suffix = f" ({event['error']})" if event.get("error") else ""
        print(f"state: {event.get('state')}{suffix}")
    else:
        print(f"{kind}")


def cmd_submit(args) -> int:
    """Submit a campaign spec to a running service."""
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    spec = _read_spec(args.spec)
    try:
        campaign = client.submit_blocking(
            spec, priority=args.priority, tenant=args.tenant
        )
    except ServiceError as exc:
        print(f"submit rejected: {exc}", file=sys.stderr)
        return 1
    print(f"campaign {campaign['id']} queued (runs: {', '.join(campaign['runs'])})")
    if not args.wait and not args.watch:
        return 0
    if args.watch:
        for event in client.stream(campaign["id"]):
            _print_event(event)
    final = client.wait(campaign["id"], raise_on_failure=False)
    statuses = ", ".join(
        f"{count} {status}" for status, count in
        sorted(final["trial_statuses"].items())
    ) or "no trials"
    print(f"campaign {final['id']}: {final['state']} ({statuses})")
    return 0 if final["state"] == "done" else 1


def cmd_watch(args) -> int:
    """Stream one campaign's live progress events from a service."""
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        for event in client.stream(args.id, after=args.after):
            _print_event(event)
        final = client.wait(args.id, raise_on_failure=False)
    except ServiceError as exc:
        print(f"watch failed: {exc}", file=sys.stderr)
        return 1
    return 0 if final["state"] == "done" else 1


def cmd_fabric_serve(args) -> int:
    """Boot the fabric coordinator: durable queue + HTTP service."""
    from repro.fabric.coordinator import Coordinator
    from repro.service.server import ServiceApp

    if args.shards and args.shards > 1:
        # Materialise (or open) the sharded layout up front so every
        # later open_store() on this path sees the manifest.
        from repro.store import open_store

        with open_store(args.db, shards=args.shards) as store:
            report = store.shard_report()
        print(
            f"sharded warehouse at {args.db} "
            f"({report['shards']} shards, {len(report['lost'])} lost)"
        )
    coordinator = Coordinator(
        args.db,
        exec_jobs=args.jobs,
        max_pending=args.max_pending,
        lease_ttl_s=args.lease_ttl,
        max_attempts=args.max_attempts,
    )
    for entry in args.tenant or []:
        name, _, weight = entry.partition(":")
        coordinator.ensure_tenant(name, weight=int(weight) if weight else 1)
    app = ServiceApp(
        args.db, host=args.host, port=args.port, scheduler=coordinator
    )
    app.install_signal_handlers()
    app.start()
    if app.resumed:
        print(f"resumed {len(app.resumed)} pending campaign(s) from the journal")
    print(
        f"repro fabric coordinator listening on {app.url} (store: {args.db})",
        flush=True,
    )
    app.wait()
    print("repro fabric coordinator stopped (queue remains durable)")
    return 0


def cmd_fabric_worker(args) -> int:
    """Run a fabric worker: lease campaigns from a coordinator and
    execute them through the standard exec+store pipeline."""
    import os as _os
    import signal

    from repro.fabric.worker import FabricWorker, HttpTransport

    name = args.name or f"worker-{_os.getpid()}"
    worker = FabricWorker(
        HttpTransport(args.url),
        name=name,
        store_path=args.store,
        scratch_dir=args.scratch,
        jobs=args.jobs,
        poll_s=args.poll,
        ttl_s=args.ttl,
        version=args.worker_version,
        drain_policy=args.drain_policy,
        log=lambda msg: print(msg, flush=True),
    )

    def _terminate(signum, frame):
        worker.stop()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    mode = "shared store" if args.store else "remote (result bundles)"
    print(f"{name}: polling {args.url} ({mode})", flush=True)
    handled = worker.run(once=args.once, max_tasks=args.max_tasks)
    print(f"{name}: exiting after {handled} task(s)")
    return 0


def cmd_fabric_status(args) -> int:
    """Snapshot a coordinator's queue: depth, tenants, live leases."""
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        status = client.fabric_status()
    except ServiceError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1
    states = ", ".join(
        f"{count} {state}" for state, count in sorted(status["states"].items())
    ) or "empty"
    print(f"queue depth {status['depth']} ({states})")
    if status["tenants"]:
        print("tenants:")
        for name, t in sorted(status["tenants"].items()):
            quota = ""
            if t.get("max_pending") is not None:
                quota += f" max_pending={t['max_pending']}"
            if t.get("max_active") is not None:
                quota += f" max_active={t['max_active']}"
            print(
                f"  {name:<16} weight={t['weight']} "
                f"pending={t['pending']} leased={t['leased']} "
                f"done={t['done']} failed={t['failed']}{quota}"
            )
    if status["leases"]:
        print("leases:")
        for lease in status["leases"]:
            print(
                f"  {lease['campaign']} -> {lease['owner']} "
                f"(tenant {lease['tenant']}, attempt {lease['attempt']}, "
                f"expires in {lease['expires_in_s']:.1f}s)"
            )
    if status.get("workers"):
        print("workers:")
        for w in status["workers"]:
            version = f" v{w['version']}" if w.get("version") else ""
            print(
                f"  {w['name']:<16} {w['state']}{version} "
                f"heartbeat {w['heartbeat_age_s']:.1f}s ago, "
                f"{w['leases']} lease(s) held, "
                f"{w['leases_total']} completed"
            )
    return 0


def cmd_fabric_drain(args) -> int:
    """Set the durable drain directive on a worker: it finishes (or
    hands back) its lease, deregisters and exits — never killed."""
    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    try:
        info = client.fabric_drain(args.worker)
    except ServiceError as exc:
        print(f"drain failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"{info['name']}: draining ({info['leases']} lease(s) "
        "to finish before exit)"
    )
    return 0


def cmd_fabric_supervise(args) -> int:
    """Run the fleet supervisor: liveness reaping, backlog autoscaling
    and (with --roll) a lease-safe rolling upgrade."""
    import subprocess

    from repro.fabric.queue import WorkQueue
    from repro.fabric.supervisor import FleetSupervisor, SupervisorConfig

    def spawn(name: str, version: str):
        cmd = [
            sys.executable, "-m", "repro", "fabric", "worker",
            "--url", args.url, "--name", name,
            "--poll", str(args.poll), "--ttl", str(args.ttl),
        ]
        if version:
            cmd += ["--version", version]
        if args.store:
            cmd += ["--store", args.store]
        if args.jobs != 1:
            cmd += ["--jobs", str(args.jobs)]
        print(f"supervisor: spawning {name}" + (f" v{version}" if version else ""))
        return subprocess.Popen(cmd)

    config = SupervisorConfig(
        min_workers=args.min_workers,
        max_workers=args.max_workers,
        backlog_per_worker=args.backlog_per_worker,
        heartbeat_timeout_s=args.heartbeat_timeout,
        version=args.fleet_version,
    )
    with WorkQueue(args.db) as queue:
        supervisor = FleetSupervisor(queue, config=config, spawn=spawn)
        if args.roll:
            result = supervisor.roll(args.roll)
            print(
                f"rolled fleet to {args.roll!r}: replaced "
                f"{len(result['replaced'])} worker(s) "
                f"({', '.join(result['replaced']) or 'none'})"
            )
            return 0
        import time as _time

        remaining = args.ticks
        try:
            while True:
                d = supervisor.tick().as_dict()
                if d["spawned"] or d["drained"] or d["dead"]:
                    print(
                        f"supervisor: backlog={d['backlog']} "
                        f"live={d['live']} desired={d['desired']} "
                        f"spawned={d['spawned']} drained={d['drained']} "
                        f"dead={d['dead']}"
                    )
                if remaining is not None:
                    remaining -= 1
                    if remaining <= 0:
                        break
                _time.sleep(args.interval)
        except KeyboardInterrupt:
            print("supervisor: interrupted (fleet keeps running)")
    return 0


def cmd_store_render(args) -> int:
    """Re-render a stored run as an SVG heatmap."""
    from repro.store import open_store
    from repro.viz import stored_heatmap_figure

    with open_store(args.db) as store:
        figure = stored_heatmap_figure(store, args.run, metric=args.metric)
        figure.save(args.out)
    print(f"wrote {args.metric} heatmap of run {args.run!r} to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The quicbench argument parser (one subcommand per experiment)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="quicbench",
        description="Conformance testing for QUIC congestion control "
        "(reproduction of Mishra & Leong, IMC 2023).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stacks", help="list studied and known stacks").set_defaults(
        fn=cmd_stacks
    )

    p = sub.add_parser("conformance", help="measure one implementation")
    p.add_argument("--stack", required=True, choices=sorted(registry.STACKS))
    p.add_argument("--cca", required=True,
                   choices=list(registry.registered_ccas()))
    p.add_argument("--variant", default="default")
    p.add_argument("--plot", action="store_true", help="ASCII envelope plots")
    p.add_argument("--svg", default=None, help="write an SVG envelope figure")
    _add_condition_args(p)
    _add_experiment_args(p)
    p.set_defaults(fn=cmd_conformance)

    p = sub.add_parser("heatmap", help="conformance of all implementations")
    _add_condition_args(p)
    _add_experiment_args(p)
    _add_exec_args(p)
    p.set_defaults(fn=cmd_heatmap)

    p = sub.add_parser("fairness", help="intra-CCA bandwidth-share matrix")
    p.add_argument("--cca", required=True,
                   choices=list(registry.registered_ccas()))
    _add_condition_args(p)
    p.set_defaults(bandwidth=20.0, rtt=50.0, buffer=1.0)
    _add_experiment_args(p)
    _add_exec_args(p)
    p.set_defaults(fn=cmd_fairness)

    p = sub.add_parser("intercca", help="BBR vs CUBIC interaction matrix")
    _add_condition_args(p)
    p.set_defaults(bandwidth=20.0, rtt=50.0, buffer=1.0)
    _add_experiment_args(p)
    _add_exec_args(p)
    p.set_defaults(fn=cmd_intercca)

    p = sub.add_parser("fixes", help="Table 4 fix verification")
    _add_condition_args(p)
    _add_experiment_args(p)
    p.set_defaults(fn=cmd_fixes)

    p = sub.add_parser("sweep", help="Fig. 5 cwnd-gain sweep")
    _add_condition_args(p)
    _add_experiment_args(p)
    _add_exec_args(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("rootcause", help="classify a stack's deviations")
    p.add_argument("--stack", required=True, choices=sorted(registry.STACKS))
    _add_condition_args(p)
    _add_experiment_args(p)
    p.set_defaults(fn=cmd_rootcause)

    p = sub.add_parser("regression", help="conformance across kernel milestones")
    p.add_argument("--stack", default=None, choices=sorted(registry.STACKS))
    p.add_argument("--cca", default=None, choices=list(registry.CCAS),
                   help="restrict to one CCA (requires --stack)")
    p.add_argument("--from-store", action="store_true",
                   help="rebuild the matrix from stored milestone runs "
                   "instead of recomputing (requires --store)")
    _add_condition_args(p)
    _add_experiment_args(p)
    _add_exec_args(p)
    p.set_defaults(fn=cmd_regression)

    p = sub.add_parser("select", help="rank CCAs for an application's region")
    p.add_argument("--max-delay", type=float, required=True, help="ms")
    p.add_argument("--min-tput", type=float, default=0.0, help="Mbps")
    _add_condition_args(p)
    _add_experiment_args(p)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("qlog", help="export a flow's qlog (and pcap) trace")
    p.add_argument("--stack", required=True, choices=sorted(registry.STACKS))
    p.add_argument("--cca", required=True,
                   choices=list(registry.registered_ccas()))
    p.add_argument("--variant", default="default")
    p.add_argument("--out", required=True)
    p.add_argument("--pcap", default=None, help="also write a pcap here")
    _add_condition_args(p)
    _add_experiment_args(p)
    p.set_defaults(fn=cmd_qlog)

    p = sub.add_parser("matrix", help="buffer-sweep dataset export (CSV)")
    p.add_argument("--stack", default=None, choices=sorted(registry.STACKS),
                   help="restrict to one stack (default: all 22 impls)")
    p.add_argument("--out", required=True)
    _add_condition_args(p)
    _add_experiment_args(p)
    _add_exec_args(p)
    p.set_defaults(fn=cmd_matrix)

    store = sub.add_parser(
        "store", help="query the repro.store results warehouse"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    def _store_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        sp = store_sub.add_parser(name, help=help_text)
        sp.add_argument("--db", required=True, help="warehouse SQLite file")
        return sp

    p = _store_parser("ingest", "load manifests / sideline spills into a store")
    p.add_argument("--manifest", action="append", default=[],
                   help="JSONL run manifest to ingest (repeatable)")
    p.add_argument("--sideline", action="append", default=[],
                   help="sideline spill file written while the store "
                   "sink's circuit breaker was open (repeatable)")
    p.add_argument("--run", default=None,
                   help="run-name prefix for manifests")
    p.set_defaults(fn=cmd_store_ingest)

    p = _store_parser("runs", "list recorded runs and row counts")
    p.set_defaults(fn=cmd_store_runs)

    p = _store_parser("query", "filtered metric export")
    p.add_argument("--run", default=None, help="restrict to one run (name)")
    p.add_argument("--stack", default=None)
    p.add_argument("--cca", default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--condition", default=None,
                   help="condition describe() string, e.g. 20mbps-10ms-1bdp")
    p.add_argument("--metric", default=None, help="e.g. conf, conf_t, share")
    p.add_argument("--format", choices=["table", "csv", "json"],
                   default="table")
    p.add_argument("--out", default=None, help="write here instead of stdout")
    p.set_defaults(fn=cmd_store_query)

    p = _store_parser("diff", "compare two runs; flag verdict flips")
    p.add_argument("--run-a", default=None, help="before run (name)")
    p.add_argument("--run-b", required=True, help="after run (name)")
    p.add_argument("--baseline", default=None,
                   help="diff --run-b against this named baseline instead "
                   "of --run-a")
    p.add_argument("--metric", default="conf")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="conformance verdict threshold")
    p.add_argument("--atol", type=float, default=0.0,
                   help="ignore value moves at or below this tolerance")
    p.add_argument("--fail-on-flips", action="store_true",
                   help="exit 1 if any verdict flipped (for CI)")
    p.set_defaults(fn=cmd_store_diff)

    p = _store_parser("baseline", "set or list named baselines")
    p.add_argument("--set", default=None, metavar="NAME",
                   help="name the baseline to (re)point")
    p.add_argument("--run", default=None, help="run the baseline points at")
    p.set_defaults(fn=cmd_store_baseline)

    p = _store_parser("render", "SVG heatmap of one stored run")
    p.add_argument("--run", required=True)
    p.add_argument("--metric", default="conf")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_store_render)

    p = _store_parser("gc", "purge unlinked trial payloads and vacuum")
    p.add_argument("--dry-run", action="store_true",
                   help="report what would be purged without touching the file")
    p.set_defaults(fn=cmd_store_gc)

    p = sub.add_parser(
        "serve", help="run the campaign service (HTTP API + scheduler)"
    )
    p.add_argument("--db", required=True, help="warehouse SQLite file")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8437,
                   help="TCP port (0 = pick a free one; the chosen port "
                   "is printed on the listening line)")
    p.add_argument("--workers", type=int, default=1,
                   help="campaigns that may run concurrently")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes per campaign (per-campaign "
                   "concurrency limit)")
    p.add_argument("--max-pending", type=int, default=64,
                   help="queued-campaign cap; beyond it POST /campaigns "
                   "returns 429 + Retry-After")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("submit", help="submit a campaign spec to a service")
    p.add_argument("--url", required=True, help="service base URL")
    p.add_argument("--spec", required=True,
                   help="campaign spec JSON file ('-' reads stdin)")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--tenant", default=None,
                   help="tenant the campaign is billed to (fabric "
                   "deployments schedule fairly across tenants)")
    p.add_argument("--wait", action="store_true",
                   help="block until the campaign finishes")
    p.add_argument("--watch", action="store_true",
                   help="stream progress events while waiting")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("watch", help="stream a campaign's progress events")
    p.add_argument("--url", required=True, help="service base URL")
    p.add_argument("id", help="campaign id (from submit)")
    p.add_argument("--after", type=int, default=0,
                   help="resume the event stream after this cursor")
    p.set_defaults(fn=cmd_watch)

    topo = sub.add_parser(
        "topo", help="declarative topology & flow-spec campaigns (repro.topo)"
    )
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)

    p = topo_sub.add_parser("validate", help="validate topology spec files")
    p.add_argument("files", nargs="+", help="topology spec JSON files")
    p.set_defaults(fn=cmd_topo_validate)

    def _topo_inputs(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--spec", action="append", default=[],
                        help="topology spec JSON file (repeatable)")
        sp.add_argument("--shape", action="append", default=[],
                        help="builtin shape: dumbbell, chain, parking-lot "
                        "(repeatable)")
        sp.add_argument("--cca", default="cubic",
                        help="CCA used by builtin shapes")

    p = topo_sub.add_parser(
        "run", help="run a topology campaign from files and/or shapes"
    )
    _topo_inputs(p)
    _add_experiment_args(p)
    _add_exec_args(p)
    p.set_defaults(fn=cmd_topo_run)

    p = topo_sub.add_parser(
        "matrix", help="fairness matrix: builtin shapes x CCAs"
    )
    p.add_argument("--ccas", nargs="*", default=None,
                   choices=list(registry.registered_ccas()),
                   help="CCAs to sweep (default: the kernel-reference trio)")
    _add_experiment_args(p)
    _add_exec_args(p)
    p.set_defaults(fn=cmd_topo_matrix)

    cca = sub.add_parser(
        "cca", help="the pluggable CCA registry (repro.ccax)"
    )
    cca_sub = cca.add_subparsers(dest="cca_command", required=True)

    def _cca_modules(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--modules", action="append", default=[],
                        help="user module (file path or import name) "
                        "registering external CCAs (repeatable)")

    p = cca_sub.add_parser("list", help="list registered CCAs")
    _cca_modules(p)
    p.set_defaults(fn=cmd_cca_list)

    p = cca_sub.add_parser(
        "describe", help="one CCA's registration record as JSON"
    )
    p.add_argument("name", help="registered CCA name")
    _cca_modules(p)
    p.set_defaults(fn=cmd_cca_describe)

    p = cca_sub.add_parser(
        "peer-matrix",
        help="reference-free peer-conformance matrix for a CCA group",
    )
    p.add_argument("--peers", nargs="+", required=True,
                   help="CCA peer group (registered names)")
    p.add_argument("--host-stack", default=None,
                   help="neutral host stack carrying the peers "
                   "(default: linux)")
    p.add_argument("--svg", default=None,
                   help="write the matrix panel SVG here")
    _cca_modules(p)
    _add_condition_args(p)
    _add_experiment_args(p)
    _add_exec_args(p)
    p.set_defaults(fn=cmd_cca_peer_matrix)

    fabric = sub.add_parser(
        "fabric", help="distributed campaign fabric (repro.fabric)"
    )
    fabric_sub = fabric.add_subparsers(dest="fabric_command", required=True)

    p = fabric_sub.add_parser(
        "serve", help="run the coordinator: durable queue + HTTP service"
    )
    p.add_argument("--db", required=True, help="warehouse SQLite file")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8437,
                   help="TCP port (0 = pick a free one; the chosen port "
                   "is printed on the listening line)")
    p.add_argument("--jobs", type=int, default=1,
                   help="executor jobs per campaign (workers inherit)")
    p.add_argument("--max-pending", type=int, default=64,
                   help="queued-campaign cap; beyond it POST /campaigns "
                   "returns 429 + Retry-After")
    p.add_argument("--lease-ttl", type=float, default=30.0,
                   help="seconds a worker lease lives between heartbeats")
    p.add_argument("--max-attempts", type=int, default=3,
                   help="lease attempts before a task fails for good")
    p.add_argument("--tenant", action="append", default=[],
                   metavar="NAME[:WEIGHT]",
                   help="pre-register a tenant with a DRR weight "
                   "(repeatable)")
    p.add_argument("--shards", type=int, default=None,
                   help="open/create the warehouse as a sharded layout "
                   "with this many shards (a directory of shard-NNN.db "
                   "files; trials are hash-routed, meta stays in shard 0)")
    p.set_defaults(fn=cmd_fabric_serve)

    p = fabric_sub.add_parser(
        "worker", help="run a worker agent against a coordinator"
    )
    p.add_argument("--url", required=True, help="coordinator base URL")
    p.add_argument("--name", default=None,
                   help="worker name (default: worker-<pid>)")
    p.add_argument("--store", default=None,
                   help="shared warehouse file (same host/filesystem as "
                   "the coordinator); omit to run remote and ship "
                   "result bundles")
    p.add_argument("--scratch", default=None,
                   help="scratch directory for remote-mode stores")
    p.add_argument("--jobs", type=int, default=1,
                   help="executor processes per campaign")
    p.add_argument("--poll", type=float, default=0.5,
                   help="seconds between empty lease polls")
    p.add_argument("--ttl", type=float, default=30.0,
                   help="lease TTL requested from the coordinator")
    p.add_argument("--once", action="store_true",
                   help="exit at the first empty poll (drain mode)")
    p.add_argument("--max-tasks", type=int, default=None,
                   help="exit after handling this many tasks")
    p.add_argument("--version", dest="worker_version", default="",
                   help="code version stamped in the worker registry "
                   "(rolling upgrades drain workers on stale versions)")
    p.add_argument("--drain-policy", choices=("finish", "handback"),
                   default="finish",
                   help="on drain: finish the current lease (default) "
                   "or hand it back retryably and exit at once")
    p.set_defaults(fn=cmd_fabric_worker)

    p = fabric_sub.add_parser(
        "status", help="queue depth, tenants, live leases and workers"
    )
    p.add_argument("--url", required=True, help="coordinator base URL")
    p.set_defaults(fn=cmd_fabric_status)

    p = fabric_sub.add_parser(
        "drain", help="ask one worker to finish its lease and exit"
    )
    p.add_argument("--url", required=True, help="coordinator base URL")
    p.add_argument("worker", help="registered worker name")
    p.set_defaults(fn=cmd_fabric_drain)

    p = fabric_sub.add_parser(
        "supervise",
        help="fleet supervisor: liveness, autoscaling, rolling upgrade",
    )
    p.add_argument("--db", required=True,
                   help="the coordinator's warehouse (registry + queue)")
    p.add_argument("--url", required=True,
                   help="coordinator base URL handed to spawned workers")
    p.add_argument("--min-workers", type=int, default=1)
    p.add_argument("--max-workers", type=int, default=4)
    p.add_argument("--backlog-per-worker", type=int, default=2,
                   help="pending+leased tasks each worker should absorb")
    p.add_argument("--heartbeat-timeout", type=float, default=60.0,
                   help="heartbeat age past which a worker is declared "
                   "dead and reaped from the registry")
    p.add_argument("--fleet-version", default="",
                   help="version stamped on workers this supervisor spawns")
    p.add_argument("--roll", default=None, metavar="VERSION",
                   help="perform a lease-safe rolling upgrade to VERSION "
                   "and exit (spawn replacement, await heartbeat, drain "
                   "old, await exit — one worker at a time)")
    p.add_argument("--store", default=None,
                   help="--store passed to spawned workers (shared-store "
                   "mode); omit for remote result bundles")
    p.add_argument("--jobs", type=int, default=1,
                   help="--jobs passed to spawned workers")
    p.add_argument("--poll", type=float, default=0.5,
                   help="--poll passed to spawned workers")
    p.add_argument("--ttl", type=float, default=30.0,
                   help="--ttl passed to spawned workers")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between supervision ticks")
    p.add_argument("--ticks", type=int, default=None,
                   help="stop after this many ticks (default: run forever)")
    p.set_defaults(fn=cmd_fabric_supervise)

    p = sub.add_parser(
        "chaos",
        help="fault-injection campaign proving the pipeline invariant",
    )
    p.add_argument("--matrix", default="smoke",
                   help="named fault matrix: smoke (fast, CI) or default "
                   "(every fault class incl. the service round trip)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="simulated seconds per trial")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--jobs", type=int, default=2,
                   help="pool workers for the worker-fault classes")
    p.add_argument("--seed", type=int, default=0,
                   help="fault-schedule seed (same seed, same faults)")
    p.add_argument("--workdir", default=None,
                   help="scratch directory (default: a fresh temp dir); "
                   "per-class stores/manifests/sidelines are left here")
    p.set_defaults(fn=cmd_chaos)

    from repro.lint.cli import add_lint_parser

    add_lint_parser(sub)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
