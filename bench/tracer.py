"""In-memory span tracer installed from outside the program.

Spans wrap module attributes at the binding the caller actually uses
(``from .x import f`` copies the function into the importing module, so
wrapping ``autodidact.x.f`` alone would miss those calls).  Each span name
keeps three numbers: calls, total seconds and child seconds; self time is
total minus child.  A mixed15 run makes about 1.7M candidate spans, so
nothing is kept per call.  Named counters (outcomes, steps, bytes) are
gathered at the same boundaries by per-span exit hooks.
"""

from __future__ import annotations

import os
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, child_s]
        self.counts: Counter = Counter()
        self._stack = [0.0]  # child-time accumulator per open span; [0] is the root
        self._patches: list = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, enter=None, exit=None):
        """Return fn timed as span ``name``.

        ``enter(args)`` returns a token; ``exit(result, args, token)`` runs
        after the span closes, with result None when fn raised.
        """
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = enter(args) if enter is not None else None
            result = None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += child
                if exit is not None:
                    exit(result, args, token)

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, enter=None, exit=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, enter, exit))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ---------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "top_level_s": self._stack[0],
        }

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]


def diff(after: dict, before: dict) -> dict:
    """Per-phase deltas between two snapshots."""
    spans = {}
    for name, (calls, total, child) in after["spans"].items():
        c0, t0, ch0 = before["spans"].get(name, (0, 0.0, 0.0))
        if calls != c0:
            spans[name] = [calls - c0, total - t0, (total - t0) - (child - ch0)]
    counts = {
        k: v - before["counts"].get(k, 0)
        for k, v in after["counts"].items()
        if v != before["counts"].get(k, 0)
    }
    return {"spans": spans, "counts": counts}


# ---------------------------------------------------------------------------
# The wrap points
# ---------------------------------------------------------------------------

OUTCOMES = ("accepted", "budget", "malformed_task", "malformed_edit", "bad_edit", "validation")

# Span names by the runs that reach them; every name must record at least
# one call on a tiny run of that kind (checked by bench/test_bench.py).
GROWTH_SPANS = (
    "engine.run",
    "search.schedule",
    "search.bucket",
    "search.try_candidate",
    "meta.run_meta",
    "vm.apply_modification",
    "engine.judge",
    "tasks.solves",
    "vm.run_solver",
    "archive.append_entry",
)
V1_SPANS = ("validate.demonstrate", "tasks.replay_check")  # mixed domain: decision traces
V2_SPANS = ("costs.measure_task", "costs.cost")
REPLAY_SPANS = (
    "archive.load_archive",
    "audit.audit_archive",
    "engine.resume",
    "metrics.write_report",
    "archive.append_entry",
)


def _outcome(record) -> str:
    if record.verdict in ("accepted", "budget"):
        return record.verdict
    return record.reason.split(":", 1)[0]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the growth and replay paths."""
    from autodidact import archive, audit, costs, engine, metrics, search, tasks, validate

    counts = tracer.counts

    def candidate_done(result, _args, _token):
        if result is not None:
            counts["search.outcome." + _outcome(result[0])] += 1

    tracer.patch(search, "try_candidate", "search.try_candidate", exit=candidate_done)
    tracer.patch(search, "run_meta", "meta.run_meta")
    tracer.patch(search, "apply_modification", "vm.apply_modification")

    def bucket_enter(args):
        return args[1] in args[0]._buckets

    def bucket_done(result, _args, cached):
        if result is not None and not cached:
            counts["search.bucket.entries"] += len(result)

    tracer.patch(search.CandidateSpace, "bucket", "search.bucket", bucket_enter, bucket_done)
    tracer.patch(engine, "oops_search", "search.schedule")
    tracer.patch(engine.Engine, "run", "engine.run")
    tracer.patch(engine.Engine, "_resume", "engine.resume")

    def judge_enter(_args):
        return tracer.calls("validate.demonstrate") + tracer.calls("costs.measure_task")

    def judge_done(_result, _args, work_before):
        if judge_enter(None) == work_before:
            counts["engine.judge.pair_hits"] += 1

    tracer.patch(engine.Engine, "_judge_v1", "engine.judge", judge_enter, judge_done)
    tracer.patch(engine.Engine, "_judge_v2", "engine.judge", judge_enter, judge_done)

    def demonstrated(result, _args, _token):
        if result is not None:
            counts["validate.revalidated"] += len(result.revalidated_tasks)

    tracer.patch(engine, "demonstrate", "validate.demonstrate", exit=demonstrated)

    for owner in (engine, audit, costs):
        # costs.measure_task is the binding metrics.write_report imports lazily.
        tracer.patch(owner, "measure_task", "costs.measure_task")
    for owner in (engine, audit):
        tracer.patch(owner, "cost", "costs.cost")
    for owner in (engine, validate, costs, audit):
        tracer.patch(owner, "solves", "tasks.solves")
    for owner in (validate, costs):
        tracer.patch(owner, "replay_check", "tasks.replay_check")

    def solver_ran(result, _args, _token):
        if result is not None:
            counts["vm.run_solver.steps"] += result.executed

    tracer.patch(tasks, "run_solver", "vm.run_solver", exit=solver_ran)

    def size(path) -> int:
        try:
            return os.path.getsize(path)
        except OSError:
            return 0

    def append_enter(args):
        return size(args[0])

    def appended(_result, args, before):
        counts["archive.append_entry.bytes"] += size(args[0]) - before

    for owner in (engine, archive):
        tracer.patch(owner, "append_entry", "archive.append_entry", append_enter, appended)

    def loaded(result, _args, _token):
        if result is not None:
            counts["archive.load_archive.entries"] += len(result)

    for owner in (engine, audit, metrics):
        tracer.patch(owner, "load_archive", "archive.load_archive", exit=loaded)

    def audited(result, _args, _token):
        if result is not None:
            counts["audit.preservation_checked"] += result.preservation_checked
            counts["audit.cost_rows_checked"] += result.cost_rows_checked

    tracer.patch(audit, "audit_archive", "audit.audit_archive", exit=audited)
    tracer.patch(metrics, "write_report", "metrics.write_report")
