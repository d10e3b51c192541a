"""Per-rule fixture tests for the determinism and contract rule packs.

Each test writes the smallest snippet that violates one rule into a
temporary project tree, runs the engine over it, and asserts the finding
carries the right rule id and ``file:line`` — plus a compliant twin
snippet asserting no false positive.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_paths


def make_project(tmp_path, files):
    """Build a throwaway repo tree and return its LintConfig."""
    root = tmp_path / "proj"
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body).lstrip("\n"))
    return LintConfig.for_root(root)


def run_lint(config, **kwargs):
    return lint_paths(config=config, **kwargs)


def findings_for(report, rule):
    return [f for f in report.findings if f.rule == rule]


# ------------------------------------------------------------- wall-clock


def test_wall_clock_flagged_in_simulation_paths(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/netsim/engine.py": """
                import time

                def stamp():
                    return time.time()
            """,
        },
    )
    report = run_lint(config)
    (finding,) = findings_for(report, "wall-clock")
    assert finding.path.endswith("netsim/engine.py")
    assert finding.line == 4
    assert "time.time" in finding.message


@pytest.mark.parametrize(
    "call",
    ["time.monotonic()", "time.perf_counter()", "datetime.datetime.now()"],
)
def test_wall_clock_variants_flagged(tmp_path, call):
    config = make_project(
        tmp_path,
        {
            "src/repro/core/stats.py": f"""
                import time
                import datetime

                def stamp():
                    return {call}
            """,
        },
    )
    assert findings_for(run_lint(config), "wall-clock")


def test_wall_clock_from_import_and_extra_files(tmp_path):
    config = make_project(
        tmp_path,
        {
            # `from time import monotonic` must canonicalise.
            "src/repro/harness/runner.py": """
                from time import monotonic

                def stamp():
                    return monotonic()
            """,
            # exec/telemetry.py is covered via wallclock_extra_files.
            "src/repro/exec/telemetry.py": """
                import time

                def stamp():
                    return time.time()
            """,
            # exec/executor.py is NOT covered (timeout bookkeeping).
            "src/repro/exec/executor.py": """
                import time

                def stamp():
                    return time.perf_counter()
            """,
        },
    )
    report = run_lint(config)
    flagged = {f.path.rsplit("/", 2)[-1] for f in findings_for(report, "wall-clock")}
    paths = {f.path for f in findings_for(report, "wall-clock")}
    assert any(p.endswith("harness/runner.py") for p in paths)
    assert any(p.endswith("exec/telemetry.py") for p in paths)
    assert not any(p.endswith("exec/executor.py") for p in paths)


def test_simulated_time_not_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/netsim/engine.py": """
                class Engine:
                    def __init__(self):
                        self.now = 0.0

                    def time(self):
                        return self.now

                def stamp(engine):
                    return engine.time()
            """,
        },
    )
    assert not findings_for(run_lint(config), "wall-clock")


# -------------------------------------------------------- unseeded-random


def test_module_level_random_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/netsim/link.py": """
                import random

                def jitter():
                    return random.random()
            """,
        },
    )
    (finding,) = findings_for(run_lint(config), "unseeded-random")
    assert finding.line == 4


def test_unseeded_random_instance_flagged_seeded_ok(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/netsim/aqm.py": """
                import random

                BAD = random.Random()
                GOOD = random.Random(42)

                def draw(rng):
                    return rng.random()
            """,
        },
    )
    flagged = findings_for(run_lint(config), "unseeded-random")
    assert [f.line for f in flagged] == [3]


def test_numpy_global_rng_flagged_default_rng_seeded_ok(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/core/clustering.py": """
                import numpy as np

                def centers(k, seed):
                    bad = np.random.rand(k)
                    also_bad = np.random.default_rng()
                    good = np.random.default_rng(seed)
                    return bad, also_bad, good
            """,
        },
    )
    flagged = findings_for(run_lint(config), "unseeded-random")
    assert [f.line for f in flagged] == [4, 5]


# ---------------------------------------------------------- set-iteration


def test_for_loop_over_set_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/core/conformance.py": """
                def collect(rows):
                    names = {r.name for r in rows}
                    out = []
                    for name in names:
                        out.append(name)
                    return out
            """,
        },
    )
    (finding,) = findings_for(run_lint(config), "set-iteration")
    assert finding.line == 4


def test_sorted_set_iteration_ok(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/core/conformance.py": """
                def collect(rows):
                    names = {r.name for r in rows}
                    return [n for n in sorted(names)]
            """,
        },
    )
    assert not findings_for(run_lint(config), "set-iteration")


def test_list_of_set_and_comprehension_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/harness/matrix.py": """
                def freeze(rows):
                    frozen = list(set(rows))
                    doubled = [r * 2 for r in set(rows)]
                    return frozen, doubled
            """,
        },
    )
    flagged = findings_for(run_lint(config), "set-iteration")
    assert sorted(f.line for f in flagged) == [2, 3]


def test_set_taint_cleared_by_reassignment(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/core/stats.py": """
                def collect(rows):
                    names = {r.name for r in rows}
                    names = sorted(names)
                    return [n for n in names]
            """,
        },
    )
    assert not findings_for(run_lint(config), "set-iteration")


# ---------------------------------------------------------- id-keyed-dict


def test_id_keyed_dict_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/core/timeseries.py": """
                def index(flows):
                    table = {}
                    for flow in flows:
                        table[id(flow)] = flow
                    return table
            """,
        },
    )
    (finding,) = findings_for(run_lint(config), "id-keyed-dict")
    assert finding.line == 4


def test_id_in_literal_and_get_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/core/envelope.py": """
                def lookup(table, flow):
                    seed = {id(flow): flow}
                    return table.get(id(flow))
            """,
        },
    )
    assert len(findings_for(run_lint(config), "id-keyed-dict")) == 2


# ----------------------------------------------------------- environ-read


def test_environ_read_flagged_outside_seams(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/netsim/network.py": """
                import os

                def tuning():
                    a = os.environ["QUIC_TUNING"]
                    b = os.environ.get("QUIC_TUNING")
                    c = os.getenv("QUIC_TUNING")
                    return a, b, c
            """,
            # The sanctioned seam stays clean.
            "src/repro/harness/config.py": """
                import os

                def jobs():
                    return os.environ.get("QUICBENCH_JOBS")
            """,
        },
    )
    report = run_lint(config)
    flagged = findings_for(report, "environ-read")
    assert len(flagged) == 3
    assert all(f.path.endswith("netsim/network.py") for f in flagged)


# ---------------------------------------------------- stack-profile-fields


def test_stack_profile_missing_fields_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/stacks/newstack.py": """
                from repro.stacks.base import StackProfile

                PROFILE = StackProfile(
                    name="newstack",
                    organization="Acme",
                )
            """,
        },
    )
    (finding,) = findings_for(run_lint(config), "stack-profile-fields")
    assert "version" in finding.message and "ccas" in finding.message
    assert finding.line == 3


def test_stack_module_without_profile_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {"src/repro/stacks/orphan.py": "X = 1\n"},
    )
    (finding,) = findings_for(run_lint(config), "stack-profile-fields")
    assert "registers no" in finding.message


def test_complete_stack_profile_ok(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/stacks/fullstack.py": """
                from repro.stacks.base import StackProfile

                PROFILE = StackProfile(
                    name="fullstack",
                    organization="Acme",
                    version="deadbeef",
                    ccas={},
                )
            """,
        },
    )
    assert not findings_for(run_lint(config), "stack-profile-fields")


# -------------------------------------------------------- cca-hook-surface


def test_cca_missing_hooks_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/cca/vegas.py": """
                from repro.cca.base import CongestionController

                class Vegas(CongestionController):
                    def on_ack(self, event):
                        pass
            """,
        },
    )
    (finding,) = findings_for(run_lint(config), "cca-hook-surface")
    assert "cwnd" in finding.message
    assert "on_congestion_event" in finding.message
    assert "name" in finding.message


def test_complete_cca_ok(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/cca/vegas.py": """
                from repro.cca.base import CongestionController

                class Vegas(CongestionController):
                    name = "vegas"

                    @property
                    def cwnd(self):
                        return 10

                    def on_ack(self, event):
                        pass

                    def on_congestion_event(self, now, bytes_in_flight):
                        pass
            """,
        },
    )
    assert not findings_for(run_lint(config), "cca-hook-surface")


def test_indirect_cca_subclass_not_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/cca/variant.py": """
                from repro.cca.reno import NewReno

                class Tweaked(NewReno):
                    pass
            """,
        },
    )
    assert not findings_for(run_lint(config), "cca-hook-surface")


# -------------------------------------------------------- cli-doc-coverage


def test_undocumented_subcommand_flagged(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/cli.py": """
                def build_parser(sub):
                    sub.add_parser("frobnicate", help="secret feature")
                    sub.add_parser("stacks", help="documented feature")
            """,
            "README.md": "Run `repro stacks` for the inventory.\n",
        },
    )
    (finding,) = findings_for(run_lint(config), "cli-doc-coverage")
    assert "frobnicate" in finding.message
    assert finding.line == 2


def test_documented_subcommands_ok(tmp_path):
    config = make_project(
        tmp_path,
        {
            "src/repro/cli.py": """
                def build_parser(sub):
                    sub.add_parser("stacks", help="documented feature")
            """,
            "docs/usage.md": "The stacks subcommand lists stacks.\n",
        },
    )
    assert not findings_for(run_lint(config), "cli-doc-coverage")
