"""Every CLI campaign command writes the rows and prints the tables it
always did.

Each command runs at a tiny protocol with ``--store``; the digest
covers its stdout tables (the ``exec:`` and ``store:`` lines carry
timings and run counts, so they are left out), any file it writes, the
warehouse's measurement rows (run, stack, cca, variant, physical
condition, metric, value) and every stored trial payload.  The pinned
digests were computed with the CLI that called the harness campaign
functions directly, before the commands became campaign specs.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.store import ResultStore

TINY = ["--duration", "3", "--trials", "1"]

#: name -> argv (without the protocol and --store flags).
COMMANDS = {
    "heatmap": ["heatmap", "--bandwidth", "5"],
    "matrix": ["matrix", "--stack", "quiche", "--out", "{tmp}/matrix.csv"],
    "regression": ["regression", "--stack", "xquic", "--cca", "cubic"],
    "fairness": ["fairness", "--cca", "reno", "--bandwidth", "5"],
    "intercca": ["intercca", "--bandwidth", "5"],
    "sweep": ["sweep"],
    "fixes": ["fixes"],
    "topo-run": ["topo", "run", "--shape", "dumbbell"],
    "topo-matrix": ["topo", "matrix", "--ccas", "cubic"],
    "peer-matrix": ["cca", "peer-matrix", "--peers", "cubic", "reno"],
}

#: ``fixes`` takes no executor flags (no --store).
NO_STORE = {"fixes"}

PINNED = {
    "fairness": "5dbce8e87d45ed2b",
    "fixes": "77119e22b150a817",
    "heatmap": "a649f3ac7d23953d",
    "intercca": "6beb29f44d578522",
    "matrix": "f63c9c1f185213de",
    "peer-matrix": "b92457e37e8d4973",
    "regression": "72726a7907eb99c3",
    "sweep": "9194e4e46981b6e7",
    "topo-matrix": "6246e6cd46bb2896",
    "topo-run": "02affcf38a50b7bb",
}


def _tables(stdout: str, tmp: Path) -> list:
    return [
        line.replace(str(tmp), "<tmp>")
        for line in stdout.splitlines()
        if not line.startswith(("exec:", "store:"))
    ]


def _rows(store: ResultStore) -> list:
    return sorted(
        (r.run, r.stack, r.cca, r.variant, r.bandwidth_mbps, r.rtt_ms,
         r.buffer_bdp, r.metric, repr(r.value))
        for r in store.query()
    )


def _payloads(store: ResultStore) -> list:
    out = []
    for key in store.trial_keys():
        array = store.get_trial(key, strict=True)
        out.append((key, str(array.dtype), list(array.shape),
                    hashlib.sha256(array.tobytes()).hexdigest()))
    return out


def command_digest(name: str, tmp: Path) -> str:
    """Run one command in this process; digest what it printed and wrote."""
    argv = [arg.format(tmp=tmp) for arg in COMMANDS[name]] + TINY
    db = tmp / "store.db"
    if name not in NO_STORE:
        argv += ["--store", str(db)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    record = {"tables": _tables(stdout.getvalue(), tmp)}
    for path in sorted(tmp.glob("*.csv")):
        record[path.name] = path.read_text()
    if db.exists():
        with ResultStore(str(db)) as store:
            record["rows"] = _rows(store)
            record["payloads"] = _payloads(store)
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


#: One spec per pre-existing kind; adding kinds must not move these.
SPECS = {
    "conformance": {"kind": "conformance", "stacks": ["quiche"],
                    "ccas": ["cubic"], "duration_s": 3, "trials": 1},
    "matrix": {"kind": "matrix", "conditions": [{"buffer_bdp": 5}],
               "run": "m"},
    "regression": {"kind": "regression", "stacks": ["xquic"], "seed": 7},
    "topology": {"kind": "topology", "topologies": [{
        "name": "one", "links": [{"name": "l", "bandwidth_mbps": 10,
                                  "delay_ms": 10}],
        "flows": [{"label": "f", "stack": "linux", "cca": "cubic"}]}]},
    "peer_conformance": {"kind": "peer_conformance",
                         "peers": ["cubic", "reno"], "note": "n"},
}

PINNED_FINGERPRINTS = {
    "conformance": "d1f4860d3cdc9642",
    "matrix": "2f69443c6dd1ede6",
    "regression": "9ebd2dd27a76307c",
    "topology": "d38c16ce46dfd1d3",
    "peer_conformance": "990b3dcd2aac52c7",
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_matches_pinned_digest(name, tmp_path):
    assert command_digest(name, tmp_path) == PINNED[name]


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_existing_kind_fingerprints_are_pinned(kind):
    from repro.service.specs import parse_campaign_spec

    spec = parse_campaign_spec(SPECS[kind])
    assert spec.fingerprint() == PINNED_FINGERPRINTS[kind]
