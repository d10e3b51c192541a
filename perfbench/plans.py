"""Seeded workload inputs: which campaigns a benchmark run submits.

A plan depends only on ``(workload, seed, seconds)``.  The seed picks
trial seeds and the order of stacks; it never changes how many
campaigns, cells, trials or simulated seconds a run has, so every seed
asks for the same amount of work.  ``seconds`` scales the campaign count at a nominal
rate, so the work of a run is fixed for a given ``--seconds`` and a
faster program simply finishes sooner.

The plan holds plain campaign-spec dicts, exactly what a client POSTs
to ``/campaigns``; nothing here touches the service.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

WORKLOADS = ("heatmap-cold", "resubmit-warm", "pool-short")

#: heatmap-cold: one Fig-6-style matrix per campaign, ~20 s each here.
HEATMAP_CAMPAIGN_S = 20.0
#: Five stacks giving 10 (stack, cca) pairs: 5 cubic + 3 reno
#: (loss-based) and 2 bbr (model-based).  The cells are fixed and the
#: seed picks only trial seeds: simulation cost differs by stack (a bbr
#: pair costs up to ~2x a reno one), and seed-picked stacks moved the
#: campaign time by ~20% from seed to seed.
HEATMAP_STACKS = ("mvfst", "chromium", "quiche", "msquic", "neqo")
HEATMAP_CCAS = ("cubic", "reno", "bbr")
HEATMAP_CONDITIONS = (
    {"bandwidth_mbps": 10.0, "rtt_ms": 20.0, "buffer_bdp": 1.0},
    {"bandwidth_mbps": 10.0, "rtt_ms": 20.0, "buffer_bdp": 3.0},
)
HEATMAP_DURATION_S = 8.0
HEATMAP_TRIALS = 2

#: resubmit-warm: a cold-filled grid, then small resubmitted campaigns.
WARM_CAMPAIGNS_PER_S = 4.0
WARM_CCAS = ("cubic", "reno")
WARM_CONDITION = {"bandwidth_mbps": 2.0, "rtt_ms": 20.0, "buffer_bdp": 2.0}
WARM_DURATION_S = 6.0
WARM_TRIALS = 3
WARM_TRIAL_SEED = 20231024

#: pool-short: small cold campaigns through a 2-worker executor pool.
POOL_CAMPAIGNS_PER_S = 1.25
POOL_EXEC_JOBS = 2
POOL_CCAS = ("cubic", "reno")
POOL_CONDITION = {"bandwidth_mbps": 2.0, "rtt_ms": 20.0, "buffer_bdp": 1.0}
POOL_DURATION_S = 4.0
POOL_TRIALS = 2

#: Fewest campaigns a closed loop submits, so a tail percentile with
#: ten campaigns beyond it exists even for a very short ``--seconds``.
MIN_LOOP_CAMPAIGNS = 21


@dataclass(frozen=True)
class Campaign:
    """One campaign spec plus what its final snapshot must show."""

    spec: Dict
    cells: int
    #: Expected ``trial_statuses`` of the final snapshot.  Shared
    #: reference trials submitted twice in one campaign are run once and
    #: reported ``cached`` by the executor; that count is part of it.
    statuses: Dict[str, int]


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    exec_jobs: int
    campaigns: List[Campaign]
    #: Set-up campaign (resubmit-warm's cold fill); not timed.
    fill: Optional[Campaign] = None
    #: Index of the campaign recomputed with ``exec_jobs=1`` (pool-short).
    recompute: Optional[int] = None

    def work(self) -> Dict[str, float]:
        """The amount of work the plan asks for; equal on every seed."""
        timed = self.campaigns
        return {
            "campaigns": len(timed),
            "cells": sum(c.cells for c in timed),
            "trials": sum(sum(c.statuses.values()) for c in timed),
            "simulated_s": sum(
                c.statuses.get("ok", 0) * c.spec["duration_s"] for c in timed
            ),
            "fill_trials": sum(self.fill.statuses.values()) if self.fill else 0,
        }


def _supports(stack: str, cca: str) -> bool:
    from repro.stacks import registry

    return registry.get_stack(stack).supports(cca)


def _quic_stacks() -> List[str]:
    from repro.stacks import registry

    return [profile.name for profile in registry.quic_stacks()]


def _trial_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _matrix_campaign(
    run: str,
    stacks: List[str],
    ccas: List[str],
    conditions: List[Dict],
    duration_s: float,
    trials: int,
    seed: int,
) -> Campaign:
    pairs = [(s, c) for s in stacks for c in ccas if _supports(s, c)]
    used_ccas = sorted({c for _, c in pairs})
    cells = len(pairs) * len(conditions)
    # Every cell submits its own trials plus its CCA's reference trials;
    # the executor runs each distinct trial once.
    submitted = cells * 2 * trials
    distinct = (len(pairs) + len(used_ccas)) * len(conditions) * trials
    statuses = {"ok": distinct}
    if submitted > distinct:
        statuses["cached"] = submitted - distinct
    spec = {
        "kind": "matrix",
        "stacks": list(stacks),
        "ccas": list(ccas),
        "conditions": [dict(c) for c in conditions],
        "duration_s": duration_s,
        "trials": trials,
        "seed": seed,
        "run": run,
    }
    return Campaign(spec=spec, cells=cells, statuses=statuses)


def _both_ccas(ccas) -> List[str]:
    return [s for s in _quic_stacks() if all(_supports(s, c) for c in ccas)]


def _balanced(rng: random.Random, items: List[str], count: int) -> List[str]:
    """``count`` items in seeded order, each used equally often (±1)."""
    rounds = -(-count // len(items))
    order = [item for _ in range(rounds) for item in rng.sample(items, len(items))]
    return order[:count]


def _loop_count(seconds: float, per_second: float) -> int:
    return max(MIN_LOOP_CAMPAIGNS, round(seconds * per_second))


def plan(workload: str, seed: int, seconds: float) -> Plan:
    """The seeded inputs of one benchmark run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "heatmap-cold":
        count = max(1, round(seconds / HEATMAP_CAMPAIGN_S))
        campaigns = [
            _matrix_campaign(
                f"heatmap-{seed}-{i}",
                list(HEATMAP_STACKS),
                list(HEATMAP_CCAS),
                list(HEATMAP_CONDITIONS),
                HEATMAP_DURATION_S,
                HEATMAP_TRIALS,
                _trial_seed(rng),
            )
            for i in range(count)
        ]
        return Plan(workload, seed, 1, campaigns)
    if workload == "resubmit-warm":
        # Analysis cost depends on the stack and on the trials' point
        # clouds: across grid trial seeds a warm campaign's cost moved by
        # about 20%.  So the grid is every stack hosting both CCAs at one
        # fixed trial seed, and the seed picks the resubmission order.
        grid = _both_ccas(WARM_CCAS)

        def campaign(run: str, stacks: List[str]) -> Campaign:
            return _matrix_campaign(
                run, stacks, list(WARM_CCAS), [WARM_CONDITION],
                WARM_DURATION_S, WARM_TRIALS, WARM_TRIAL_SEED,
            )

        fill = campaign(f"fill-{seed}", grid)
        count = _loop_count(seconds, WARM_CAMPAIGNS_PER_S)
        campaigns = []
        for i, stack in enumerate(_balanced(rng, grid, count)):
            warm = campaign(f"warm-{seed}-{i}", [stack])
            # Every trial of a resubmission is already in the warehouse.
            total = sum(warm.statuses.values())
            campaigns.append(
                Campaign(spec=warm.spec, cells=warm.cells, statuses={"cached": total})
            )
        return Plan(workload, seed, 1, campaigns, fill=fill)
    if workload == "pool-short":
        count = _loop_count(seconds, POOL_CAMPAIGNS_PER_S)
        campaigns = [
            _matrix_campaign(
                f"pool-{seed}-{i}",
                [stack],
                list(POOL_CCAS),
                [POOL_CONDITION],
                POOL_DURATION_S,
                POOL_TRIALS,
                _trial_seed(rng),
            )
            for i, stack in enumerate(_balanced(rng, _both_ccas(POOL_CCAS), count))
        ]
        return Plan(
            workload, seed, POOL_EXEC_JOBS, campaigns,
            recompute=rng.randrange(len(campaigns)),
        )
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
