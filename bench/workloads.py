"""Workload inputs, derived from the benchmark seed alone.

The program only ever sees the generated inputs: a run configuration and,
for replay, archives grown here from the seed.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

from autodidact.config import RunConfig, variant2_demo_config
from autodidact.engine import Engine

# grow-mixed is the mixed15 acceptance scenario.  grow-cost is the variant II
# demo cut to its first 10 phases: phases 11-14 of the demo add about 18 s
# (phase 14 alone needs t_lim = 2^42), more than one run may take.  OOPS
# growth reads no seed, and a seeded external-task queue made run_s vary
# 28-44 s across seeds (a queued task that needs t_lim = 2^40 lifts every
# later phase a doubling), so growth inputs are the same on every seed.
GROW_TASKS = {"grow-mixed": 15, "grow-cost": 10}

# Replay inputs: per variant, ARCHIVES_PER_VARIANT archives grown by the
# stochastic searcher from seeds derived from the benchmark seed, so that the
# archives' content varies with the seed while its cost averages over several
# archives.  The searcher's samples per phase are heavy-tailed past about 14
# phases (one mixed-domain phase took 439k samples), so archives stay at 12
# entries, each phase is capped, and a capped archive is grown again from
# the next derived seed.
VARIANTS = ("v1", "v2")
ARCHIVES_PER_VARIANT = 4
REPLAY_TASKS = 12
STOCH_PHASE_CAP = 20_000
MAX_ATTEMPTS = 20


def growth_config(workload: str, workdir: Path) -> RunConfig:
    paths = {
        "archive_path": str(workdir / "archive.jsonl"),
        "metrics_path": str(workdir / "metrics.csv"),
    }
    if workload == "grow-mixed":
        cfg = RunConfig(variant="I", searcher="oops", domain="mixed", **paths)
    elif workload == "grow-cost":
        cfg = variant2_demo_config(**paths)
    else:
        raise ValueError(f"not a growth workload: {workload}")
    cfg.max_tasks = GROW_TASKS[workload]
    return cfg


def replay_names() -> list:
    return [f"{v}-{k}" for v in VARIANTS for k in range(ARCHIVES_PER_VARIANT)]


def replay_config(name: str, seed: int, workdir: Path) -> RunConfig:
    common = {
        "archive_path": str(workdir / f"{name}.jsonl"),
        "metrics_path": str(workdir / f"{name}.csv"),
        "searcher": "stochastic",
        "seed": seed,
        "max_tasks": REPLAY_TASKS,
        "stoch_max_candidates": STOCH_PHASE_CAP,
    }
    if name.startswith("v1"):
        return RunConfig(variant="I", domain="mixed", **common)
    return variant2_demo_config(**common)


def grow_replay_input(name: str, seed: int, workdir: Path) -> RunConfig:
    """Grow one replay archive to REPLAY_TASKS entries; returns its config."""
    for attempt in range(MAX_ATTEMPTS):
        derived = random.Random(f"autodidact-bench:{seed}:{name}:{attempt}").randrange(2**31)
        cfg = replay_config(name, derived, workdir)
        path = Path(cfg.archive_path)
        path.unlink(missing_ok=True)
        shutil.rmtree(path.parent / (path.name + ".traces"), ignore_errors=True)
        if Engine(cfg).run().accepted == cfg.max_tasks:
            return cfg
    raise RuntimeError(f"{name}: {REPLAY_TASKS} entries not reached in {MAX_ATTEMPTS} attempts")
