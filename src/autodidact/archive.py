"""Append-only archive of frozen acceptances.

One JSON object per line; every entry carries the full solver snapshot, the
task, the candidate bits, the trace (inline up to a size threshold, sidecar
file otherwise) and enough metadata to resume or re-audit without any other
engine state.  Frozen entries never change: the digest of lines 1..k is
stable once entry k+1 exists, and a truncated final line (crash) is dropped
on reload.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .tasks import Task, Trace, task_from_json
from .vm import SolverProgram

TRACE_INLINE_LIMIT = 4096  # bytes of serialized trace kept in the main file


class ArchiveIndexError(ValueError):
    """An archive entry whose index breaks the 1, 2, 3, ... sequence."""

    def __init__(self, message: str, entry: int):
        super().__init__(message)
        self.entry = entry  # the index found out of sequence


class IndexGap(ArchiveIndexError):
    pass


class DuplicateIndex(ArchiveIndexError):
    pass


class IndexOutOfRange(IndexError):
    pass


class AlreadySolvable(ValueError):
    """An injected external task the current solver already handles."""


@dataclass
class ArchiveEntry:
    i: int
    origin: str  # "self" | "external"
    meta_code: str  # candidate bits, len:hex
    solver: dict  # SolverProgram.to_json() snapshot after acceptance
    task: dict
    trace: Optional[list] = None
    trace_ref: Optional[str] = None  # sidecar digest when the trace is big
    c: Optional[str] = None  # exact rational strings, cost variant only
    c_star: Optional[str] = None
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "i": self.i,
            "origin": self.origin,
            "p": self.meta_code,
            "solver": self.solver,
            "task": self.task,
        }
        if self.trace is not None:
            out["trace"] = self.trace
        if self.trace_ref is not None:
            out["trace_ref"] = self.trace_ref
        if self.c is not None:
            out["c"] = self.c
            out["c_star"] = self.c_star
        out["meta"] = self.meta
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ArchiveEntry":
        return cls(
            i=int(data["i"]),
            origin=data["origin"],
            meta_code=data["p"],
            solver=data["solver"],
            task=data["task"],
            trace=data.get("trace"),
            trace_ref=data.get("trace_ref"),
            c=data.get("c"),
            c_star=data.get("c_star"),
            meta=data.get("meta", {}),
        )

    def solver_program(self) -> SolverProgram:
        return SolverProgram.from_json(self.solver)

    def task_obj(self) -> Task:
        return task_from_json(self.task)

    def trace_obj(self, archive_path: Optional[str] = None) -> Optional[Trace]:
        if self.trace is not None:
            return Trace.from_json(self.trace)
        if self.trace_ref is not None:
            if archive_path is None:
                raise FileNotFoundError("sidecar trace needs the archive path")
            side = _sidecar_dir(archive_path) / f"{self.trace_ref}.json"
            return Trace.from_json(json.loads(side.read_text()))
        return None


def _sidecar_dir(archive_path) -> Path:
    p = Path(archive_path)
    return p.parent / (p.name + ".traces")


def _canonical(entry: ArchiveEntry) -> str:
    return json.dumps(entry.to_json(), sort_keys=True, separators=(",", ":"))


def append_entry(archive_path, entry: ArchiveEntry, existing: list) -> None:
    """Persist one acceptance; flushed to disk before the search resumes."""
    expected = (existing[-1].i + 1) if existing else 1
    if entry.i < expected:
        raise DuplicateIndex(f"entry {entry.i} already frozen", entry.i)
    if entry.i > expected:
        raise IndexGap(f"expected entry {expected}, got {entry.i}", entry.i)
    if entry.trace is not None:
        blob = json.dumps(entry.trace, separators=(",", ":"))
        if len(blob) > TRACE_INLINE_LIMIT:
            digest = hashlib.sha256(blob.encode()).hexdigest()[:24]
            side_dir = _sidecar_dir(archive_path)
            side_dir.mkdir(parents=True, exist_ok=True)
            (side_dir / f"{digest}.json").write_text(blob)
            entry.trace = None
            entry.trace_ref = digest
    line = _canonical(entry)
    with open(archive_path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    existing.append(entry)


def load_archive(archive_path) -> list:
    """Read back all complete entries; a truncated final line is discarded."""
    path = Path(archive_path)
    if not path.exists():
        return []
    entries: list[ArchiveEntry] = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        if not raw.strip():
            continue
        try:
            data = json.loads(raw)
        except json.JSONDecodeError:
            break  # crash tail: resume from the last complete entry
        entry = ArchiveEntry.from_json(data)
        expected = (entries[-1].i + 1) if entries else 1
        if entry.i != expected:
            raise IndexGap(f"archive entry {entry.i} where {expected} expected", entry.i)
        entries.append(entry)
    return entries


def repair_archive(archive_path, entries: list) -> bool:
    """Rewrite the file to exactly the given complete entries if it differs.

    After a crash the file may carry a truncated final record; appending past
    it would corrupt the archive, so resume truncates to the last complete
    entry first.  Returns True when a rewrite happened.
    """
    expected = "".join(_canonical(e) + "\n" for e in entries)
    path = Path(archive_path)
    actual = path.read_text(encoding="utf-8") if path.exists() else ""
    if actual == expected:
        return False
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(expected)
        fh.flush()
        os.fsync(fh.fileno())
    return True


def archive_digest(entries: list, upto: Optional[int] = None) -> str:
    """Digest over frozen entries 1..upto; changes only when entries are added."""
    h = hashlib.sha256()
    for entry in entries[: upto if upto is not None else len(entries)]:
        h.update(_canonical(entry).encode())
        h.update(b"\n")
    return h.hexdigest()


def fork_solver(entries: list, i: int) -> SolverProgram:
    """A mutable copy of the solver frozen at phase i, detached from the engine.

    Fine-tuning the fork has no effect on the archive and carries none of the
    no-forgetting obligations.
    """
    for entry in entries:
        if entry.i == i:
            prog = entry.solver_program()
            return SolverProgram(prog.instructions, prog.entries)  # thawed copy
    raise IndexOutOfRange(i)


# ---------------------------------------------------------------------------
# External task queue (same one-JSON-per-line task format)
# ---------------------------------------------------------------------------


@dataclass
class ExternalTask:
    task: Task
    reward: Optional[int] = None


def load_external_queue(path) -> list[ExternalTask]:
    p = Path(path)
    if not str(path) or not p.exists():
        return []
    out = []
    for raw in p.read_text(encoding="utf-8").splitlines():
        if not raw.strip():
            continue
        data = json.loads(raw)
        reward = data.pop("reward", None)
        out.append(ExternalTask(task_from_json(data), reward))
    return out


def save_external_queue(path, items: list[ExternalTask]) -> None:
    lines = []
    for item in items:
        data = item.task.to_json()
        if item.reward is not None:
            data["reward"] = item.reward
        lines.append(json.dumps(data, sort_keys=True, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
