"""Metrics and reports, regenerated deterministically from the archive.

Every number a row needs is frozen into the archive entry at acceptance
time, so metrics written after a resumed run are byte-identical to those of
an uninterrupted one.  No floats and no wall-clock values appear anywhere.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .archive import Replay, load_archive
from .validate import rebuild_usage

METRICS_FIELDS = [
    "i",
    "origin",
    "kind",
    "wow",
    "search_steps",
    "validation_steps",
    "revalidated",
    "candidates",
    "t_lim",
    "solver_slots",
    "solver_bits",
    "steps",
    "forgotten",
]

LEDGER_FIELDS = ["i", "c", "c_star", "savings", "solver_size", "solved_count"]


def metrics_rows(entries: list) -> list[dict]:
    rows = []
    for e in entries:
        m = e.meta
        rows.append(
            {
                "i": e.i,
                "origin": e.origin,
                "kind": m.get("kind", ""),
                "wow": int(bool(m.get("wow"))),
                "search_steps": m.get("search_steps", 0),
                "validation_steps": m.get("validation_steps", 0),
                "revalidated": m.get("revalidated", 0),
                "candidates": m.get("candidates", 0),
                "t_lim": m.get("t_lim", 0),
                "solver_slots": m.get("solver_slots", 0),
                "solver_bits": m.get("solver_bits", 0),
                "steps": m.get("steps", 0),
                "forgotten": m.get("forgotten", 0),
            }
        )
    return rows


def _write_csv(path, header: list, rows) -> None:
    """A CSV file of the header line and, per row (a dict), its header fields."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def write_metrics(entries: list, path) -> None:
    _write_csv(path, METRICS_FIELDS, metrics_rows(entries))


def ledger_rows(entries: list) -> list[dict]:
    from .costs import parse_ratio

    rows = []
    for e in entries:
        if e.c is None:
            continue
        savings = parse_ratio(e.c_star) - parse_ratio(e.c)
        rows.append(
            {
                "i": e.i,
                "c": e.c,
                "c_star": e.c_star,
                "savings": str(savings),
                "solver_size": e.meta.get("solver_bits", 0),
                "solved_count": e.meta.get("solved_count", 0),
            }
        )
    return rows


def write_cost_ledger(entries: list, path) -> None:
    _write_csv(path, LEDGER_FIELDS, ledger_rows(entries))


def summary(entries: list, config=None) -> dict:
    rows = metrics_rows(entries)
    out = {
        "tasks": len(entries),
        "by_origin": {
            "self": sum(1 for r in rows if r["origin"] == "self"),
            "external": sum(1 for r in rows if r["origin"] == "external"),
        },
        "by_kind": {
            "pattern": sum(1 for r in rows if r["kind"] == "pattern"),
            "decision": sum(1 for r in rows if r["kind"] == "decision"),
        },
        "wow_tasks": sum(r["wow"] for r in rows),
        "search_steps_total": sum(r["search_steps"] for r in rows),
        "final_solver_slots": rows[-1]["solver_slots"] if rows else 0,
        "final_solver_bits": rows[-1]["solver_bits"] if rows else 0,
    }
    if config is not None:
        out["config"] = {
            "variant": config.variant,
            "searcher": config.searcher,
            "domain": config.domain,
            "seed": config.seed,
            "prefix_mode": config.prefix_mode,
        }
    return out


def write_summary(entries: list, path, config=None) -> None:
    Path(path).write_text(
        json.dumps(summary(entries, config), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )


# ---------------------------------------------------------------------------
# The report tool: plottable views of an archive
# ---------------------------------------------------------------------------


def write_report(archive_path, out_dir) -> dict:
    """Emit the summary plus CSVs: solver growth, per-acceptance search cost,
    component-reuse histogram, and the novel-versus-efficiency task mix."""
    entries = load_archive(archive_path)
    histogram: dict[int, int] = {}
    if entries:
        # The final solver's usage over every learned task; a cost archive
        # measures its tasks as they were judged, under the stored parameters.
        replay = Replay(entries)
        last = list(replay)[-1]
        usage, _ = rebuild_usage(entries[-1].solver_program(), replay.repertoire, last.params)
        histogram = {k: len(v) for k, v in sorted(usage.by_component.items()) if v}

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = metrics_rows(entries)

    _write_csv(out / "solver_size_over_time.csv", ["i", "solver_slots", "solver_bits"], rows)
    cost = ["i", "search_steps", "validation_steps", "revalidated", "candidates", "t_lim"]
    _write_csv(out / "search_cost_per_acceptance.csv", cost, rows)
    reuse = [{"component": k, "task_count": n} for k, n in histogram.items()]
    _write_csv(out / "component_reuse_histogram.csv", ["component", "task_count"], reuse)
    wow = sum(r["wow"] for r in rows)
    mix = [
        {"category": "novel", "count": len(rows) - wow},
        {"category": "efficiency", "count": wow},
    ]
    _write_csv(out / "task_mix.csv", ["category", "count"], mix)

    info = summary(entries)
    info["reuse_histogram_total"] = sum(histogram.values())
    (out / "report_summary.json").write_text(
        json.dumps(info, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return info
