"""Determinism taint pass: seeded source→sink flows + clean fixtures.

Sinks come from ``LintConfig.taint_sinks`` (full qnames like
``repro.harness.runner.trial_identity``) and ``taint_sink_suffixes``
(``.fingerprint``, ``.put_trial``).  The fixture projects define
functions at exactly those dotted paths so the default config applies
unchanged — the same way the real tree is analysed.
"""

import textwrap

from repro.lint import LintConfig, lint_paths

TAINT = "taint-identity"

SINK_MODULE = {
    "src/repro/harness/__init__.py": "",
    "src/repro/harness/runner.py": """
        def trial_identity(spec, salt):
            return (spec, salt)
    """,
}


def make_project(tmp_path, files):
    root = tmp_path / "proj"
    for rel, body in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body).lstrip("\n"))
    return LintConfig.for_root(root)


def taint_findings(config):
    report = lint_paths(config=config)
    return [f for f in report.findings if f.rule == TAINT]


# ----------------------------------------------------------------- seeded


def test_clock_directly_into_sink(tmp_path):
    config = make_project(
        tmp_path,
        {
            **SINK_MODULE,
            "src/repro/use.py": """
                import time

                from repro.harness.runner import trial_identity

                def run(spec):
                    return trial_identity(spec, time.time())
            """,
        },
    )
    found = taint_findings(config)
    assert len(found) == 1
    f = found[0]
    assert f.path == "src/repro/use.py"
    assert "time.time()" in f.message
    assert "trial_identity" in f.message


def test_clock_through_helper_return(tmp_path):
    """The source is observed in one function, returned, and only then
    passed to the sink — requires the ret_atoms fixpoint."""
    config = make_project(
        tmp_path,
        {
            **SINK_MODULE,
            "src/repro/use.py": """
                import time

                from repro.harness.runner import trial_identity

                def stamp():
                    return time.time()

                def run(spec):
                    salt = stamp()
                    return trial_identity(spec, salt)
            """,
        },
    )
    found = taint_findings(config)
    assert len(found) == 1
    assert "time.time()" in found[0].message


def test_source_through_sink_flowing_parameter(tmp_path):
    """The sink call is buried one frame down; the caller's argument
    reaches it through the param_sink fixpoint."""
    config = make_project(
        tmp_path,
        {
            **SINK_MODULE,
            "src/repro/use.py": """
                import random

                from repro.harness.runner import trial_identity

                def record(spec, value):
                    return trial_identity(spec, value)

                def run(spec):
                    return record(spec, random.random())
            """,
        },
    )
    found = taint_findings(config)
    assert len(found) == 1
    assert "random.random" in found[0].message


def test_entropy_into_suffix_sink(tmp_path):
    """uuid4 into a ``.fingerprint`` method (suffix-matched sink)."""
    config = make_project(
        tmp_path,
        {
            "src/repro/spec.py": """
                import uuid

                class Spec:
                    def fingerprint(self, payload):
                        return hash(payload)

                def tag(spec: Spec):
                    return spec.fingerprint(uuid.uuid4())
            """,
        },
    )
    found = taint_findings(config)
    assert len(found) == 1
    assert "uuid.uuid4()" in found[0].message
    assert "fingerprint" in found[0].message


def test_tainted_self_attribute(tmp_path):
    """A nondeterministic value stored on self in __init__ and later
    passed to the sink from another method."""
    config = make_project(
        tmp_path,
        {
            **SINK_MODULE,
            "src/repro/use.py": """
                import os

                from repro.harness.runner import trial_identity

                class Session:
                    def __init__(self):
                        self._nonce = os.urandom(8)

                    def run(self, spec):
                        return trial_identity(spec, self._nonce)
            """,
        },
    )
    found = taint_findings(config)
    assert len(found) == 1
    assert "os.urandom()" in found[0].message


# ------------------------------------------------------------------ clean


def test_pure_spec_identity_is_clean(tmp_path):
    config = make_project(
        tmp_path,
        {
            **SINK_MODULE,
            "src/repro/use.py": """
                from repro.harness.runner import trial_identity

                def run(spec, trial_index):
                    return trial_identity(spec, trial_index)
            """,
        },
    )
    assert taint_findings(config) == []


def test_sorted_launders_set_order(tmp_path):
    """sorted(set) is deterministic; the raw set iteration is not."""
    config = make_project(
        tmp_path,
        {
            **SINK_MODULE,
            "src/repro/use.py": """
                from repro.harness.runner import trial_identity

                def run(spec, names):
                    items = set(names)
                    return trial_identity(spec, sorted(items))
            """,
        },
    )
    assert taint_findings(config) == []


def test_clock_into_telemetry_is_clean(tmp_path):
    """Timestamps are fine anywhere that is not an identity sink."""
    config = make_project(
        tmp_path,
        {
            **SINK_MODULE,
            "src/repro/use.py": """
                import time

                def log_event(sink, kind):
                    sink.append((kind, time.time()))
            """,
        },
    )
    assert taint_findings(config) == []


def test_suppression_applies_to_taint(tmp_path):
    config = make_project(
        tmp_path,
        {
            **SINK_MODULE,
            "src/repro/use.py": """
                import time

                from repro.harness.runner import trial_identity

                def run(spec):
                    # lint: disable=taint-identity -- migration shim, tracked in #42
                    return trial_identity(spec, time.time())
            """,
        },
    )
    report = lint_paths(config=config)
    assert [f for f in report.findings if f.rule == TAINT] == []
    assert any(f.rule == TAINT for f in report.suppressed)
