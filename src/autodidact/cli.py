"""Command line harness: run experiments, audit archives, emit reports.

Exit codes: 0 success, 2 configuration error (for a malformed external-task
line a ``config_error`` event names the line; resuming an archive under the
other variant or prefix mode is one too), 3 audit mismatch or a damaged
archive: a torn line before the last, an entry that does not decode (a
solver row that is no slot of its code included), whose index is no integer or breaks
sequence, whose origin is neither "self" nor "external", whose appended
span does not start at the previous solver's slot count, that carries a
ledger, or freezes its solver, other than entry 1 does, whose cost
parameters record an ``l_max`` other than 256, that holds a decision task
without the trace it needs, or whose ``solver_slots`` and ``solver_bits``
are not its snapshot's (every entry for ``audit``, the last for ``report``
and ``run --resume``); an ``archive_corrupt`` event names the entry, 4
search ceiling reached with zero acceptances in this run (entries read by
``--resume`` do not count).
Progress events stream as one JSON object per line on standard error; all
result files are deterministic functions of (config, seed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .archive import ArchiveCorrupt, MalformedQueue
from .audit import audit_archive
from .config import DOMAINS, SEARCHERS, VARIANTS, ConfigError, RunConfig
from .costs import parse_ratio
from .engine import Engine
from .metrics import write_cost_ledger, write_metrics, write_summary, write_report

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_AUDIT = 3
EXIT_CEILING = 4


def _log_stderr(event: dict) -> None:
    sys.stderr.write(json.dumps(event, sort_keys=True) + "\n")


def _archive_corrupt(exc: ArchiveCorrupt) -> int:
    _log_stderr({"event": "archive_corrupt", "entry": exc.entry, "error": str(exc)})
    return EXIT_AUDIT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autodidact",
        description="Grow a problem solver by inventing the cheapest still-unsolved task.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = RunConfig()  # the defaults live in one place
    run = sub.add_parser("run", help="run a growth experiment")
    run.add_argument("--variant", default=d.variant, choices=VARIANTS)
    run.add_argument("--searcher", default=d.searcher, choices=SEARCHERS)
    run.add_argument("--domain", default=d.domain, choices=DOMAINS)
    run.add_argument("--seed", type=int, default=d.seed)
    run.add_argument("--max-tasks", type=int, default=d.max_tasks)
    run.add_argument("--step-ceiling", type=int, default=d.step_ceiling)
    run.add_argument("--alpha", default=str(d.alpha))
    run.add_argument("--epsilon", default=str(d.epsilon))
    run.add_argument("--eps-wow", type=int, default=d.eps_wow)
    run.add_argument("--prefix-mode", action="store_true")
    run.add_argument("--paranoid", action="store_true")
    run.add_argument("--adapt-prior", action="store_true")
    run.add_argument("--archive", dest="archive_path", default=d.archive_path)
    run.add_argument("--metrics", dest="metrics_path", default=d.metrics_path)
    run.add_argument("--external-tasks", dest="external_tasks_path", default=d.external_tasks_path)
    run.add_argument("--resume", action="store_true")

    audit = sub.add_parser("audit", help="re-verify every acceptance in an archive")
    audit.add_argument("archive")

    rep = sub.add_parser("report", help="emit summary and plottable CSVs from an archive")
    rep.add_argument("archive")
    rep.add_argument("--out", default="report")
    return parser


def config_from_args(args) -> RunConfig:
    """The RunConfig a parsed ``run`` command line asks for (no env overrides);
    each flag's dest is its field's name."""
    flags = {k: v for k, v in vars(args).items() if k != "command"}
    flags["alpha"], flags["epsilon"] = parse_ratio(args.alpha), parse_ratio(args.epsilon)
    return RunConfig(**flags)


def cmd_run(args) -> int:
    try:
        config = config_from_args(args).apply_env_overrides()
        config.validate()
    except (ConfigError, ValueError, ZeroDivisionError) as exc:
        _log_stderr({"event": "config_error", "error": str(exc)})
        return EXIT_CONFIG

    try:
        engine = Engine(config, log=_log_stderr)
        result = engine.run()
    except ArchiveCorrupt as exc:
        return _archive_corrupt(exc)
    except MalformedQueue as exc:
        _log_stderr({"event": "config_error", "line": exc.line, "error": str(exc)})
        return EXIT_CONFIG
    except ConfigError as exc:  # a resume under the other variant
        _log_stderr({"event": "config_error", "error": str(exc)})
        return EXIT_CONFIG
    except OSError as exc:
        _log_stderr({"event": "io_error", "error": str(exc)})
        return EXIT_CONFIG

    write_metrics(result.entries, config.metrics_path)
    if config.variant == "II":
        write_cost_ledger(result.entries, _sibling(config.metrics_path, "cost_ledger.csv"))
    write_summary(result.entries, _sibling(config.metrics_path, "summary.json"), config)
    if result.ceiling_reached and result.accepted == 0:
        return EXIT_CEILING
    return EXIT_OK


def _sibling(path: str, name: str) -> str:
    from pathlib import Path

    p = Path(path)
    return str(p.parent / name)


def _read_archive(path: str, read) -> tuple:
    """(read(path), None), or (None, exit code): an ``io_error`` event and 2 for
    a missing archive or an OSError, ``archive_corrupt`` and 3 for ArchiveCorrupt."""
    if not os.path.exists(path):
        _log_stderr({"event": "io_error", "error": f"no archive at {path}"})
        return None, EXIT_CONFIG
    try:
        return read(path), None
    except ArchiveCorrupt as exc:
        return None, _archive_corrupt(exc)
    except OSError as exc:
        _log_stderr({"event": "io_error", "error": str(exc)})
        return None, EXIT_CONFIG


def cmd_audit(args) -> int:
    report, failed = _read_archive(args.archive, audit_archive)
    if failed is not None:
        return failed
    _log_stderr(
        {
            "event": "audit",
            "phases": report.phases,
            "novelty_confirmed": report.novelty_confirmed,
            "preservation_checked": report.preservation_checked,
            "cost_rows_checked": report.cost_rows_checked,
            "failures": len(report.failures),
            "first_failing_phase": report.first_failing_phase,
        }
    )
    for f in report.failures:
        _log_stderr({"event": "audit_failure", "phase": f.phase, "check": f.check, "detail": f.detail})
    return EXIT_OK if report.ok else EXIT_AUDIT


def cmd_report(args) -> int:
    info, failed = _read_archive(args.archive, lambda path: write_report(path, args.out))
    if failed is not None:
        return failed
    _log_stderr({"event": "report", "tasks": info["tasks"], "out": args.out})
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "audit":
        return cmd_audit(args)
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
