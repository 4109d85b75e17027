import json
import random

import pytest

from conftest import build_repertoire
from autodidact.archive import (
    AlreadySolvable,
    ArchiveEntry,
    DuplicateIndex,
    ExternalTask,
    IndexGap,
    IndexOutOfRange,
    Replay,
    append_entry,
    archive_digest,
    fork_solver,
    load_archive,
    load_external_queue,
    save_external_queue,
)
from autodidact.engine import inject_external_task
from autodidact.tasks import PatternTask, Trace, solves
from autodidact.bits import nibble
from autodidact.vm import SolverProgram


def entry(i, solver=None, task=None, trace=None):
    solver = solver or SolverProgram(((1, ()),))
    task = task or PatternTask(0, nibble(1), nibble(1), 64, 1024)
    return ArchiveEntry(
        i=i,
        origin="self",
        meta_code="15:0000",
        solver=solver.to_json(),
        task=task.to_json(),
        trace=trace,
        meta={"kind": task.kind},
    )


def test_append_then_reload_is_bit_identical(tmp_path):
    path = tmp_path / "archive.jsonl"
    entries = []
    append_entry(path, entry(1), entries)
    append_entry(path, entry(2), entries)
    reloaded = load_archive(path)
    assert [e.to_json() for e in reloaded] == [e.to_json() for e in entries]
    assert archive_digest(reloaded) == archive_digest(entries)


def test_index_gap_and_duplicate_detection(tmp_path):
    path = tmp_path / "archive.jsonl"
    entries = []
    append_entry(path, entry(1), entries)
    with pytest.raises(IndexGap):
        append_entry(path, entry(3), entries)
    with pytest.raises(DuplicateIndex):
        append_entry(path, entry(1), entries)
    # Reading tells the two kinds of damage apart as well.
    append_entry(path, entry(2), entries)
    first, second = path.read_text().splitlines(keepends=True)
    path.write_text(first + first + second)
    with pytest.raises(DuplicateIndex) as repeated:
        load_archive(path)
    assert repeated.value.entry == 1
    path.write_text(second)
    with pytest.raises(IndexGap) as skipped:
        load_archive(path)
    assert skipped.value.entry == 2


def test_digest_over_frozen_prefix_never_changes(tmp_path):
    path = tmp_path / "archive.jsonl"
    entries = []
    append_entry(path, entry(1), entries)
    d1 = archive_digest(entries, 1)
    append_entry(path, entry(2), entries)
    append_entry(path, entry(3), entries)
    assert archive_digest(entries, 1) == d1


def test_truncated_final_line_is_discarded(tmp_path):
    path = tmp_path / "archive.jsonl"
    entries = []
    append_entry(path, entry(1), entries)
    append_entry(path, entry(2), entries)
    whole = path.read_text()
    path.write_text(whole[:-25])  # crash mid-write of the second record
    survivors = load_archive(path)
    assert [e.i for e in survivors] == [1]


def test_fork_is_detached_from_the_archive(tmp_path):
    path = tmp_path / "archive.jsonl"
    entries = []
    s1 = SolverProgram(((1, ()), (3, ())), entries={"1:00": 0}).frozen_copy()
    append_entry(path, entry(1, solver=s1), entries)
    fork = fork_solver(entries, 1)
    assert fork.instructions == s1.instructions
    assert fork.frozen_prefix_len == 0  # detached copy is editable
    from autodidact.vm import Append, apply_modification

    apply_modification(fork, [Append((1, ()))])
    assert load_archive(path)[0].solver == s1.to_json()
    with pytest.raises(IndexOutOfRange):
        fork_solver(entries, 9)


def test_fork_still_solves_its_frozen_tasks():
    rng = random.Random(21)
    solver, items, _usage = build_repertoire(rng, 3)
    entries = []
    for item in items:
        e = ArchiveEntry(
            i=item.index,
            origin="self",
            meta_code="15:0000",
            solver=solver.to_json(),
            task=item.task.to_json(),
            trace=item.trace.to_json() if item.trace else None,
            meta={},
        )
        entries.append(e)
    fork = fork_solver(entries, 1)
    report, _ = solves(fork, items[0].task)
    assert report.success


def test_a_big_trace_stays_in_its_line_and_replays(tmp_path):
    path = tmp_path / "archive.jsonl"
    big_trace = [[0, 0, "u" * 40, 0] for _ in range(400)]
    append_entry(path, entry(1, trace=big_trace), [])
    line = path.read_text()
    assert len(line) > 20_000 and json.loads(line)["trace"] == big_trace
    assert list(tmp_path.iterdir()) == [path]  # no second file beside the archive
    (step,) = Replay(load_archive(path))
    assert step.trace == Trace.from_json(big_trace)


def test_an_append_syncs_the_archive_file_once(tmp_path, monkeypatch):
    import os

    from autodidact import archive

    synced = []
    real_fsync = os.fsync

    def spy(fd):
        synced.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(archive.os, "fsync", spy)
    path = tmp_path / "archive.jsonl"
    append_entry(path, entry(1, trace=[[0, 0, "u" * 40, 0] for _ in range(400)]), [])
    assert synced == [path.stat().st_ino]


def test_external_queue_round_trip(tmp_path):
    path = tmp_path / "queue.jsonl"
    t = PatternTask(2, nibble(3), nibble(9), 64, 1024)
    save_external_queue(path, [ExternalTask(t, reward=77)])
    back = load_external_queue(path)
    assert back[0].task.identity() == t.identity()
    assert back[0].reward == 77


def test_inject_external_task_refuses_solved_ones():
    rng = random.Random(22)
    solver, items, _usage = build_repertoire(rng, 1)
    queue = []
    with pytest.raises(AlreadySolvable):
        inject_external_task(queue, items[0].task, solver=solver)
    fresh = PatternTask(5, nibble(2), nibble(9), 64, 1024)
    report, _ = solves(solver, fresh)
    if not report.success:
        inject_external_task(queue, fresh, reward=5, solver=solver)
        assert len(queue) == 1
