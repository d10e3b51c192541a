"""The figure benches' shared conftest: one BENCH record per module,
carrying whether every test in that module passed."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PASSING = '''
def test_claim_holds():
    assert 1 + 1 == 2
'''

FAILING = '''
def test_claim_holds():
    assert True


def test_claim_broken():
    assert 0.273 >= 0.6, "verdict agreement below the paper's"
'''


def test_failed_bench_module_records_passed_false(tmp_path):
    shutil.copy(ROOT / "benchmarks" / "conftest.py", tmp_path / "conftest.py")
    (tmp_path / "pytest.ini").write_text("[pytest]\n")
    (tmp_path / "test_bench_good.py").write_text(PASSING)
    (tmp_path / "test_bench_broken.py").write_text(FAILING)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr

    output = tmp_path / "output"
    broken = json.loads((output / "BENCH_broken.json").read_text())
    assert broken["module"] == "test_bench_broken"
    assert broken["passed"] is False
    assert set(broken["tests"]) == {"test_claim_holds", "test_claim_broken"}
    good = json.loads((output / "BENCH_good.json").read_text())
    assert good["passed"] is True
    # No bench asked for the warehouse, so none was created.
    assert not (tmp_path / ".quicbench_store.db").exists()
