"""Byte-identity guard: the first phases of the benchmark's growth workloads
search exactly as bench/fingerprints.json records.

An archive entry's candidates, search steps and t_lim fix how much work the
doubling scheduler did and how far it doubled, so a scheduler change that
alters the search fails here, in the tier-1 suite, and not only in the
benchmark.  The configs are the ones bench/workloads.py grows.
"""

import json
from pathlib import Path

import pytest

from autodidact.config import RunConfig, variant2_demo_config
from autodidact.engine import Engine

FINGERPRINTS = Path(__file__).resolve().parents[1] / "bench" / "fingerprints.json"


@pytest.mark.parametrize("workload, phases", [("grow-mixed", 4), ("grow-cost", 3)])
def test_first_phases_match_the_benchmark_fingerprints(tmp_path, workload, phases):
    paths = {
        "archive_path": str(tmp_path / "archive.jsonl"),
        "metrics_path": str(tmp_path / "metrics.csv"),
    }
    if workload == "grow-mixed":
        cfg = RunConfig(variant="I", searcher="oops", domain="mixed", max_tasks=phases, **paths)
    else:
        cfg = variant2_demo_config(max_tasks=phases, **paths)
    entries = Engine(cfg).run().entries
    searched = [[e.meta["candidates"], e.meta["search_steps"], e.meta["t_lim"]] for e in entries]
    expected = json.loads(FINGERPRINTS.read_text())[workload]["phases"][:phases]
    assert searched == expected
