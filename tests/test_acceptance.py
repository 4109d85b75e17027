"""Acceptance suite: every shipping criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds; any violated
tolerance fails the corresponding test.  The three scenario runs are session
fixtures so the suite pays for each expensive search once.
"""

import json
import os
import random
import time
from fractions import Fraction

import pytest

from conftest import build_repertoire, execute, random_edit, random_task
from autodidact.audit import audit_archive
from autodidact.bits import BitString, nibble
from autodidact.codec import enumerate_programs, kraft_sum, kraft_tail_bound
from autodidact.config import RunConfig, variant2_demo_config
from autodidact.engine import Engine
from autodidact.isa import SOLVER_ISA
from autodidact.archive import ExternalTask, load_archive, save_external_queue
from autodidact.meta import META_ISA, MetaContext, ScratchStore
from autodidact.metrics import ledger_rows, write_metrics
from autodidact.costs import parse_ratio
from autodidact.prior import Prior
from autodidact.search import (
    SearchProblem,
    candidate_space,
    fresh_caches,
    oops_search,
)
from autodidact.tasks import PatternTask, solves
from autodidact.validate import demonstrate, full_revalidation
from autodidact.vm import apply_modification


def line(n: int, message: str) -> None:
    print(f"[acceptance] criterion {n:2d}: PASS  {message}")


def run_engine(tmp_factory, name, **kw):
    d = tmp_factory.mktemp(name)
    cfg = RunConfig(
        archive_path=str(d / "archive.jsonl"), metrics_path=str(d / "metrics.csv"), **kw
    )
    t0 = time.time()
    engine = Engine(cfg)
    result = engine.run()
    elapsed = time.time() - t0
    write_metrics(result.entries, cfg.metrics_path)
    return cfg, result, elapsed


@pytest.fixture(scope="session")
def mixed15(tmp_path_factory):
    return run_engine(
        tmp_path_factory, "mixed15", variant="I", domain="mixed", seed=42, max_tasks=15
    )


@pytest.fixture(scope="session")
def grid10_prefix(tmp_path_factory):
    return run_engine(
        tmp_path_factory,
        "grid10",
        variant="I",
        domain="gridworld",
        seed=42,
        max_tasks=10,
        prefix_mode=True,
    )


@pytest.fixture(scope="session")
def v2_default(tmp_path_factory):
    d = tmp_path_factory.mktemp("v2")
    cfg = variant2_demo_config(
        archive_path=str(d / "archive.jsonl"), metrics_path=str(d / "metrics.csv")
    )
    result = Engine(cfg).run()
    write_metrics(result.entries, cfg.metrics_path)
    return cfg, result


def test_criterion_1_no_forgetting(mixed15):
    cfg, result, elapsed = mixed15
    assert result.accepted == 15
    assert elapsed < 600  # well under the ten-minute target
    report = audit_archive(cfg.archive_path)
    assert report.phases == 15
    assert report.ok, report.failures
    line(
        1,
        f"15 acceptances (mixed scenario, seed 42) re-verified with full "
        f"revalidation, {report.preservation_checked} preservation checks, "
        f"0 mismatches, {elapsed:.0f}s",
    )


def test_criterion_2_novelty(mixed15):
    cfg, _result, _elapsed = mixed15
    report = audit_archive(cfg.archive_path)
    assert report.novelty_confirmed == 15
    assert not [f for f in report.failures if f.check == "novelty"]
    line(2, "audit independently confirms the previous solver fails each new task, 15/15")


def test_criterion_3_incremental_equals_full_oracle():
    rng = random.Random(20260808)
    agreements = 0
    trials = 0
    while agreements < 1000:
        solver, items, usage = build_repertoire(rng, rng.randrange(1, 4))
        edits = random_edit(rng, solver, items)
        trials += 1
        try:
            q, changed = apply_modification(solver, edits)
        except Exception:
            continue
        task, _code = random_task(rng, {i.entry_key for i in items})
        report = demonstrate(q, solver, task, items, usage, changed, 10**9)
        prev, _ = solves(solver, task)
        new, _ = solves(q, task)
        oracle = (not prev.success) and new.success and full_revalidation(q, items)
        assert report.accepted == oracle, f"divergence on trial {trials}"
        agreements += 1
    line(3, f"incremental verdict equals full revalidation in {agreements}/1000 cases")


def test_criterion_4_undo_bit_exactness():
    from autodidact.codec import encode
    from autodidact.meta import (
        M_E_TPL,
        M_MPUSH,
        M_T_COPY,
        M_USTORE,
        decode_meta,
    )

    ctx = MetaContext(
        solver=build_repertoire(random.Random(4), 2)[0],
        repertoire=[],
        segments=[(0, 5)],
        scratch=ScratchStore(),
        t_pattern=64,
        n_pattern=1024,
        t_grid=48,
        n_grid=1024,
        eps_wow=5,
    )
    ctx.scratch.write(7, 1234)
    ctx.scratch.journal.clear()
    baseline = ctx.scratch.digest()

    def reject_all(q, changed, proposal, meter, caches):
        return None

    rejected = 0
    writers = 0

    def on_candidate(meta, record, budget, undone):
        nonlocal rejected, writers
        if record.verdict != "accepted":
            rejected += 1
        if undone:
            writers += 1
        assert ctx.scratch.digest() == baseline
        assert ctx.scratch.journal == []

    problem = SearchProblem(
        ctx=ctx,
        prior=Prior(META_ISA),
        judge=reject_all,
        paranoid=True,
        on_candidate=on_candidate,
    )
    caches = fresh_caches()
    # Candidates that genuinely write scratch cells before inventing a task,
    # over every (value, address, task) nibble combination.
    for v in range(16):
        for a in range(16):
            for k in range(16):
                inventor = [
                    (M_MPUSH, (v,)),
                    (M_MPUSH, (a,)),
                    (M_USTORE, ()),
                    (M_T_COPY, (k,)),
                ]
                bits = (
                    encode(inventor, META_ISA)
                    + encode([(M_E_TPL, (0,))], META_ISA)
                    + encode([], META_ISA)
                )
                execute(decode_meta(bits), problem, 64, caches)
    assert writers >= 4000  # the journal really was exercised
    # Plus the raw enumerated stream up to a length bound.
    space = candidate_space("mixed", False)
    for meta in space.candidates(42):
        execute(meta, problem, 64, caches)
        if rejected >= 10_000:
            break
    assert rejected >= 10_000
    assert ctx.scratch.digest() == baseline
    line(
        4,
        f"storage digest identical before and after {rejected} rejected candidates "
        f"({writers} of them wrote scratch cells)",
    )


def test_criterion_5_budget_law(tmp_path_factory):
    violations = []
    t_lim_traces = []

    def on_candidate(meta, record, budget, undone):
        if record.steps > budget:
            violations.append((meta.code.to_hex(), record.steps, budget))

    d = tmp_path_factory.mktemp("budget")
    cfg = RunConfig(
        variant="I",
        domain="gridworld",
        seed=13,
        max_tasks=3,
        archive_path=str(d / "a.jsonl"),
        metrics_path=str(d / "m.csv"),
    )
    engine = Engine(cfg)
    original = engine._search_phase

    def wrapped(phase, external):
        acc, stats = original(phase, external)
        t_lim_traces.append(stats.t_lim_trace)
        return acc, stats

    engine._search_phase = wrapped

    # instrument the candidate hook through the problem builder
    from autodidact import engine as engine_mod

    orig_oops = engine_mod.oops_search

    def spying_oops(problem, ceiling, log=None):
        problem.on_candidate = on_candidate
        return orig_oops(problem, ceiling, log)

    engine_mod.oops_search = spying_oops
    try:
        result = engine.run()
    finally:
        engine_mod.oops_search = orig_oops
    assert result.accepted == 3
    assert violations == []
    for trace in t_lim_traces:
        assert trace[0] == 1
        assert all(b == 2 * a for a, b in zip(trace, trace[1:]))

    # Planted-solution work bound: total steps <= c * f / P(winner).
    from test_search import planted_problem

    target, problem = planted_problem(needed_steps=30)
    acc, stats = oops_search(problem, step_ceiling=2**60)
    f = 2 + 30
    p = Fraction(1, 1 << target.code.length)
    measured_c = stats.steps_total * p / f
    assert measured_c <= 4
    line(
        5,
        f"per-candidate usage <= ceil(P*t_lim) with t_lim trace 1,2,4,8,...; "
        f"planted-solution work <= c*f/P(p) with measured c = {float(measured_c):.2e}",
    )


def test_criterion_6_prefix_codec():
    for isa in (SOLVER_ISA, META_ISA):
        programs = list(enumerate_programs(13, isa))
        for a in programs:
            for b in programs:
                if a is not b:
                    assert not a.is_prefix_of(b)
        head = kraft_sum(13, isa)
        assert head <= 1
        assert head + kraft_tail_bound(isa) <= 1
    line(6, "prefix-freeness exhaustive to 13 bits; Kraft sum plus tail bound <= 1")


def test_criterion_7_cost_variant_soundness(v2_default):
    cfg, result = v2_default
    # No parameters passed: ledger entries carry their own cost settings, so
    # the archive alone suffices for the re-audit.
    report = audit_archive(cfg.archive_path)
    assert report.ok, report.failures
    assert report.cost_rows_checked == result.accepted
    rows = ledger_rows(result.entries)
    assert rows
    for row in rows:
        assert parse_ratio(row["savings"]) > Fraction(cfg.epsilon)
    wows = [
        e
        for e in result.entries
        if e.meta.get("wow") and e.meta["sum_t_old_after"] < e.meta["sum_t_old_before"]
    ]
    assert wows, "no efficiency acceptance with strictly reduced old-task runtime"
    line(
        7,
        f"{report.cost_rows_checked} ledger rows recomputed exactly; all savings > epsilon; "
        f"wow acceptance at phase {wows[0].i} cut old-task runtime "
        f"{wows[0].meta['sum_t_old_before']} -> {wows[0].meta['sum_t_old_after']}",
    )


def test_criterion_8_prefix_mode_guarantee(grid10_prefix):
    cfg, result, _elapsed = grid10_prefix
    assert result.accepted == 10
    assert all(e.meta["revalidated"] == 0 for e in result.entries)
    report = audit_archive(cfg.archive_path)
    assert report.ok and report.phases == 10
    line(8, "prefix-mode run: 0 old-task revalidations across 10 phases, audit passes 10/10")


def test_criterion_9_determinism_and_resume(tmp_path_factory):
    runs = {}
    for name in ("a", "b"):
        cfg, _res, _el = run_engine(
            tmp_path_factory,
            f"det-{name}",
            variant="I",
            domain="gridworld",
            seed=7,
            max_tasks=9,
        )
        runs[name] = cfg
    archive_a = open(runs["a"].archive_path, "rb").read()
    assert archive_a == open(runs["b"].archive_path, "rb").read()
    assert (
        open(runs["a"].metrics_path, "rb").read()
        == open(runs["b"].metrics_path, "rb").read()
    )

    d = tmp_path_factory.mktemp("det-resume")
    first = RunConfig(
        variant="I",
        domain="gridworld",
        seed=7,
        max_tasks=7,
        archive_path=str(d / "archive.jsonl"),
        metrics_path=str(d / "metrics.csv"),
    )
    Engine(first).run()
    second = RunConfig(
        variant="I",
        domain="gridworld",
        seed=7,
        max_tasks=9,
        archive_path=str(d / "archive.jsonl"),
        metrics_path=str(d / "metrics.csv"),
        resume=True,
    )
    res = Engine(second).run()
    write_metrics(res.entries, second.metrics_path)
    assert open(second.archive_path, "rb").read() == archive_a
    assert (
        open(second.metrics_path, "rb").read()
        == open(runs["a"].metrics_path, "rb").read()
    )
    line(9, "identical config+seed gives byte-identical outputs; resume after phase 7 matches")


def test_criterion_10_external_tasks(tmp_path_factory):
    d = tmp_path_factory.mktemp("external")
    base = RunConfig(
        variant="I",
        domain="pattern",
        seed=3,
        max_tasks=1,
        archive_path=str(d / "archive.jsonl"),
        metrics_path=str(d / "m.csv"),
    )
    Engine(base).run()
    entries = load_archive(base.archive_path)
    solver = entries[-1].solver_program()

    t1 = entries[0].task_obj()
    solvable = PatternTask(t1.i1, t1.i2, t1.o, t1.t + 10, t1.n)
    assert solves(solver, solvable)[0].success
    hard = None
    for i1 in range(12):
        for o in range(16):
            cand = PatternTask(i1, nibble(5), nibble(o), 64, 1024)
            if not solves(solver, cand)[0].success:
                hard = cand
                break
        if hard:
            break
    assert hard is not None
    save_external_queue(d / "queue.jsonl", [ExternalTask(solvable), ExternalTask(hard, reward=9)])

    events = []
    followup = RunConfig(
        variant="I",
        domain="pattern",
        seed=3,
        max_tasks=2,
        archive_path=str(d / "archive.jsonl"),
        metrics_path=str(d / "m.csv"),
        external_tasks_path=str(d / "queue.jsonl"),
        resume=True,
    )
    res = Engine(followup, log=events.append).run()
    skips = [e for e in events if e.get("event") == "external_rejected"]
    assert skips and skips[0]["reason"] == "AlreadySolvable"
    assert res.entries[1].origin == "external"
    assert res.entries[1].task_obj().identity() == hard.identity()
    line(10, "already-solvable injection skipped as AlreadySolvable; next acceptance is external")
