"""Byte-identity guard: the first phases of the benchmark's growth workloads
search exactly as bench/fingerprints.json records.

An archive entry's candidates, search steps and t_lim fix how much work the
doubling scheduler did and how far it doubled, so a scheduler change that
alters the search fails here, in the tier-1 suite, and not only in the
benchmark.  The configs are the ones bench/workloads.py grows.
"""

import hashlib
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


# Scenarios the benchmark does not grow, with the sha256 prefixes of their
# whole archive files.  Prefix mode freezes every entry key, and the adapted
# prior splits StaticRecord groups by prior: the two places where bulk and
# table verdicts must step aside or split.
ARCHIVE_DIGESTS = [
    (dict(variant="I", domain="gridworld", prefix_mode=True, max_tasks=10), "cb6dafe5988962f1"),
    (dict(variant="II", domain="gridworld", max_tasks=4), "55dd458f3692bbbc"),
    (dict(variant="II", domain="mixed", max_tasks=6), "b9c361c28ccc5243"),
    (dict(variant="I", domain="mixed", adapt_prior=True, max_tasks=6), "b18b0b00ecfffd34"),
    (dict(variant="I", domain="pattern", prefix_mode=True, max_tasks=8), "248bdb06619a2900"),
]


@pytest.mark.parametrize(
    "overrides, digest",
    ARCHIVE_DIGESTS,
    ids=[
        "v1-grid-prefix-10",
        "v2-grid-4",
        "v2-mixed-6",
        "v1-mixed-adapted-6",
        "v1-pattern-prefix-8",
    ],
)
def test_archive_bytes_match_the_recorded_digest(tmp_path, overrides, digest):
    cfg = RunConfig(
        archive_path=str(tmp_path / "archive.jsonl"),
        metrics_path=str(tmp_path / "metrics.csv"),
        **overrides,
    )
    Engine(cfg).run()
    data = Path(cfg.archive_path).read_bytes()
    assert hashlib.sha256(data).hexdigest()[:16] == digest
