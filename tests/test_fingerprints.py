"""Byte-identity guard: the first phases of the benchmark's growth workloads
search exactly as bench/fingerprints.json records.

An archive entry's candidates, search steps and t_lim fix how much work the
doubling scheduler did and how far it doubled, so a scheduler change that
alters the search fails here, in the tier-1 suite, and not only in the
benchmark.  The configs are the ones bench/workloads.py grows.
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from autodidact.audit import audit_archive
from autodidact.config import RunConfig, variant2_demo_config
from autodidact.engine import Engine
from autodidact.metrics import write_report

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
# table verdicts must step aside or split.  The two fractional ones give
# variant II a non-integral alpha and epsilon, so the ledger's integer
# verdict must scale by their denominators to accept where the Fraction
# ledger does.
ARCHIVE_DIGESTS = [
    (dict(variant="I", domain="gridworld", prefix_mode=True, max_tasks=10), "cb6dafe5988962f1"),
    (dict(variant="II", domain="gridworld", max_tasks=4), "55dd458f3692bbbc"),
    (dict(variant="II", domain="mixed", max_tasks=6), "b9c361c28ccc5243"),
    (dict(variant="I", domain="mixed", adapt_prior=True, max_tasks=6), "b18b0b00ecfffd34"),
    (dict(variant="I", domain="pattern", prefix_mode=True, max_tasks=8), "248bdb06619a2900"),
    (
        dict(variant="II", domain="pattern", max_tasks=6, alpha=Fraction(3, 2), epsilon=Fraction(1, 2)),
        "3e16cb81688d06bf",
    ),
    (
        dict(variant="II", domain="mixed", max_tasks=5, alpha=Fraction(1, 3), epsilon=Fraction(5, 3)),
        "533188f8a0d401f0",
    ),
    # The full variant II demo (variant2_demo_config): its entry 14 re-proposes
    # a stored task that is also in the edit's revalidation set.
    (dict(variant="II", domain="pattern", max_tasks=14, alpha=Fraction(8)), "5c405fe856753b13"),
]

# What replaying two of those archives gives: the AuditReport counters
# (phases, novelty_confirmed, preservation_checked, cost_rows_checked,
# failures) and the sha256 prefix of each `autodidact report` file.  One per
# variant, so the way state is rebuilt from an archive cannot change what the
# audit checks or what the report says without failing here.
REPLAY_OUTPUTS = {
    "v1-grid-prefix-10": (
        (10, 10, 45, 0, 0),
        {
            "component_reuse_histogram.csv": "25ceefc77d57fec2",
            "report_summary.json": "4fc341b0c5ff0dcf",
            "search_cost_per_acceptance.csv": "c6df02d9ca43f6b9",
            "solver_size_over_time.csv": "e801a0bbe025eb26",
            "task_mix.csv": "fd769d8a1b0bb8ce",
        },
    ),
    "v2-grid-4": (
        (4, 0, 0, 4, 0),
        {
            "component_reuse_histogram.csv": "2123033ee40f3dd3",
            "report_summary.json": "f7e5841be0611a56",
            "search_cost_per_acceptance.csv": "e3dda320d185e1dc",
            "solver_size_over_time.csv": "11ee762fb72fea19",
            "task_mix.csv": "b951d5706708d824",
        },
    ),
}
SCENARIO_IDS = [
    "v1-grid-prefix-10",
    "v2-grid-4",
    "v2-mixed-6",
    "v1-mixed-adapted-6",
    "v1-pattern-prefix-8",
    "v2-pattern-fractional-6",
    "v2-mixed-fractional-5",
    "v2-demo-14",
]


def _grow(tmp_path, overrides) -> RunConfig:
    cfg = RunConfig(
        archive_path=str(tmp_path / "archive.jsonl"),
        metrics_path=str(tmp_path / "metrics.csv"),
        **overrides,
    )
    Engine(cfg).run()
    return cfg


def _digest(cfg: RunConfig) -> str:
    return hashlib.sha256(Path(cfg.archive_path).read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize(
    "overrides, digest, replayed",
    [(o, d, REPLAY_OUTPUTS.get(name)) for (o, d), name in zip(ARCHIVE_DIGESTS, SCENARIO_IDS)],
    ids=SCENARIO_IDS,
)
def test_archive_bytes_match_the_recorded_digest(tmp_path, overrides, digest, replayed):
    cfg = _grow(tmp_path, overrides)
    assert _digest(cfg) == digest
    if replayed is None:
        return
    counters, files = replayed
    audit = audit_archive(cfg.archive_path)
    assert (
        audit.phases,
        audit.novelty_confirmed,
        audit.preservation_checked,
        audit.cost_rows_checked,
        len(audit.failures),
    ) == counters
    out = tmp_path / "report"
    write_report(cfg.archive_path, out)
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in out.iterdir()}
    assert written == files


# Paranoid mode runs every candidate the scheduler decides without a run,
# and every judge answer read off a table or a stored pair floor, live, and
# raises on any difference; so at scenario scale each decision made without
# a run is checked against a run, and the archive bytes must not move.  One
# scenario per variant.
@pytest.mark.parametrize("name", ["v2-grid-4", "v1-mixed-adapted-6"])
def test_paranoid_runs_write_the_recorded_digest(tmp_path, name):
    overrides, digest = ARCHIVE_DIGESTS[SCENARIO_IDS.index(name)]
    assert _digest(_grow(tmp_path, {**overrides, "paranoid": True})) == digest
