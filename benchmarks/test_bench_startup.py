"""Service start-up cost: imports plus ``ServiceApp.start()``.

Each sample is a fresh Python process that imports
:class:`repro.service.ServiceApp`, starts it on a fresh warehouse and
reports the wall time from its first statement to the end of
``start()``, its peak RSS (``ru_maxrss``) and how many ``scipy`` modules
it has imported.  Emits ``output/BENCH_startup.json`` with the median
of :data:`SAMPLES` start-ups.  Seconds and megabytes depend on the host
and are recorded for information only; ``scipy_modules`` depends only
on the code and is the CI guard: the runtime needs no SciPy.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from conftest import OUTPUT_DIR, emit_bench, run_once

SAMPLES = 3

PROBE = """
import time
start = time.perf_counter()
import json, resource, sys
from repro.service import ServiceApp

app = ServiceApp(sys.argv[1])
app.start()
startup_s = time.perf_counter() - start
app.stop()
print(json.dumps({
    "startup_s": startup_s,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "scipy_modules": sum(m.split(".")[0] == "scipy" for m in sys.modules),
}))
"""


def _start_once(workdir: Path) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(workdir / "startup.db")],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return json.loads(out.stdout)


def test_bench_startup(benchmark):
    OUTPUT_DIR.mkdir(exist_ok=True)

    def start_ups():
        samples = []
        for _ in range(SAMPLES):
            with tempfile.TemporaryDirectory() as workdir:
                samples.append(_start_once(Path(workdir)))
        return samples

    samples = run_once(benchmark, start_ups)
    startup_s = statistics.median(s["startup_s"] for s in samples)
    peak_rss_mb = statistics.median(s["peak_rss_mb"] for s in samples)
    scipy_modules = max(s["scipy_modules"] for s in samples)
    emit_bench(
        __file__,
        samples=SAMPLES,
        startup_s=round(startup_s, 4),
        startup_samples_s=[round(s["startup_s"], 4) for s in samples],
        peak_rss_mb=round(peak_rss_mb, 1),
        scipy_modules=scipy_modules,
    )
    print(f"\nstartup bench: {startup_s:.3f} s, {peak_rss_mb:.1f} MB, "
          f"{scipy_modules} scipy modules")
    assert scipy_modules == 0
