"""repro.exec — the experiment-execution engine every campaign runs on.

The harness's measurements all reduce to independent 2-flow trials, and
every campaign runs them the same way: build :class:`Job`/:class:`TrialJob`
specs (``repro.exec.jobs``), call ``values = executor.run(jobs)`` once on
an :class:`Executor` — in-process or with N worker processes, per-job
timeouts and bounded retries (``repro.exec.executor``) — and evaluate
the returned values.  The N workers are started once per process, not
once per campaign: a pool whose run ended clean waits in an idle list
for the next run of the same shape (``repro.exec.pool``), and
:func:`close_pools` shuts the idle pools down (it also runs at exit).
The executor also collects per-job telemetry plus a JSONL run manifest
and an optional durable results-warehouse sink
(``repro.exec.telemetry``; see :mod:`repro.store`).

Jobs carry their seeds and cache keys, so a campaign is bit-identical at
any job count — the job count only changes *where* and *when* trials
run.  A harness entry point given no executor builds ``Executor()``:
one in-process worker over the process-wide cache.

Quick start::

    from repro.exec import Executor
    from repro.harness.conformance import conformance_heatmap

    ex = Executor(jobs=4, manifest_path="runs.jsonl")
    heatmap = conformance_heatmap(condition, config, executor=ex)
    print(ex.telemetry.summary())
"""

from repro.exec.executor import ExecutionError, Executor
from repro.exec.jobs import (
    Job,
    TrialJob,
    measurement_trial_jobs,
    pair_trial_jobs,
    share_job,
    sweep_trial_jobs,
)
from repro.exec.pool import close_pools
from repro.exec.telemetry import (
    CampaignTelemetry,
    JobRecord,
    ProgressPrinter,
    RunManifest,
    StoreSink,
)

__all__ = [
    "Executor",
    "ExecutionError",
    "close_pools",
    "Job",
    "TrialJob",
    "pair_trial_jobs",
    "measurement_trial_jobs",
    "share_job",
    "sweep_trial_jobs",
    "JobRecord",
    "CampaignTelemetry",
    "RunManifest",
    "StoreSink",
    "ProgressPrinter",
]
