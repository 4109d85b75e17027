"""Append-only archive of frozen acceptances.

One JSON object per line, and no other file: every entry carries the full
solver snapshot, the task, the candidate bits, its trace inline and enough
metadata to resume or re-audit without any other engine state.  Frozen
entries never change: the digest of lines 1..k is stable once entry k+1
exists, and a truncated final line (crash) is dropped on reload.

Reading fails with ArchiveCorrupt, naming the entry, on a torn line before
the last and on any line that parses but is not a well-formed entry in
sequence; ``Replay`` is the one way to rebuild the state the entries add up
to, and fails so on a decision task whose trace is missing.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple, Optional

from .bits import BitString
from .config import ConfigError
from .costs import CostParams, parse_ratio
from .meta import MetaProgram, decode_meta
from .tasks import DecisionTask, Task, Trace, task_from_json
from .validate import RepertoireItem
from .vm import SolverProgram

class ArchiveCorrupt(ValueError):
    """An archive line that parses as JSON but is no well-formed entry in sequence."""

    def __init__(self, entry: int, reason: str):
        super().__init__(f"archive entry {entry}: {reason}")
        self.entry = entry  # the damaged entry's index, or its place in the file


class IndexGap(ArchiveCorrupt):
    """An entry whose index skips ahead of the 1, 2, 3, ... sequence."""


class DuplicateIndex(ArchiveCorrupt):
    """An entry whose index repeats one already in the archive."""


# What reading data of the wrong shape raises: a missing key, a list where a
# dict belongs, a string that is no number (or a ratio over 0), an unknown
# task kind, candidate bits that are no program.
_SHAPE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError, ZeroDivisionError)


def _decoded(entry: int, what: str, decode, *args):
    """decode(*args), raising ArchiveCorrupt when the data has the wrong shape."""
    try:
        return decode(*args)
    except _SHAPE_ERRORS as exc:
        raise ArchiveCorrupt(entry, f"{what} does not decode ({exc!r})") from exc


class IndexOutOfRange(IndexError):
    pass


class AlreadySolvable(ValueError):
    """An injected external task the current solver already handles."""


ORIGINS = ("self", "external")

# (meta field, its least value) of the integer fields an entry's meta may hold.
_COUNTS = (
    ("search_steps", 0),
    ("steps", 0),
    ("validation_steps", 0),
    ("candidates", 1),
    ("t_lim", 1),
)


@dataclass
class ArchiveEntry:
    i: int
    origin: str  # one of ORIGINS
    meta_code: str  # candidate bits, len:hex
    solver: dict  # SolverProgram.to_json() snapshot after acceptance
    task: dict
    trace: Optional[list] = None
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
        if self.c is not None:
            out["c"] = self.c
            out["c_star"] = self.c_star
        out["meta"] = self.meta
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ArchiveEntry":
        if type(data["i"]) is not int:
            raise TypeError(f"i {data['i']!r} is no integer")
        if data["origin"] not in ORIGINS:
            raise ValueError(f"origin {data['origin']!r} is none of {ORIGINS}")
        meta = data.get("meta", {})
        if not isinstance(meta, dict):
            raise TypeError(f"meta is a {type(meta).__name__}, not an object")
        # The search record and the judge's bills: counts of steps are
        # never negative, and a phase ran at least one candidate at a t_lim
        # of at least 1 (a power of two, or the stochastic searcher's budget).
        for name, least in _COUNTS:
            value = meta.get(name, least)
            if type(value) is not int or value < least:
                raise TypeError(f"meta.{name} {value!r} is no integer >= {least}")
        span = meta.get("appended", [0, 0])
        if not (
            type(span) is list and len(span) == 2 and all(type(n) is int and n >= 0 for n in span)
        ):
            raise TypeError(f"meta.appended {span!r} is no pair of non-negative integers")
        return cls(
            i=data["i"],
            origin=data["origin"],
            meta_code=data["p"],
            solver=data["solver"],
            task=data["task"],
            trace=data.get("trace"),
            c=data.get("c"),
            c_star=data.get("c_star"),
            meta=meta,
        )

    def candidate(self) -> MetaProgram:
        """The accepted candidate, decoded from its bits ``p``."""
        return _decoded(
            self.i, "candidate bits", lambda: decode_meta(BitString.from_hex(self.meta_code))
        )

    def solver_program(self, after: Optional[SolverProgram] = None) -> SolverProgram:
        """The solver snapshot; ``after``, the solver before it, saves decoding
        the code the two share (SolverProgram.from_json)."""
        return _decoded(self.i, "solver", SolverProgram.from_json, self.solver, after)

    def task_obj(self) -> Task:
        return _decoded(self.i, "task", task_from_json, self.task)

    def trace_obj(self) -> Optional[Trace]:
        if self.trace is None:
            return None
        return _decoded(self.i, "trace", Trace.from_json, self.trace)


def _canonical(entry: ArchiveEntry) -> str:
    return json.dumps(entry.to_json(), sort_keys=True, separators=(",", ":"))


def append_entry(archive_path, entry: ArchiveEntry, existing: list) -> None:
    """Persist one acceptance, synced before the search resumes."""
    expected = (existing[-1].i + 1) if existing else 1
    if entry.i < expected:
        raise DuplicateIndex(entry.i, "already frozen")
    if entry.i > expected:
        raise IndexGap(entry.i, f"appended where entry {expected} was expected")
    line = _canonical(entry)
    with open(archive_path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    existing.append(entry)


def load_archive(archive_path) -> list:
    """Read back all complete entries; a truncated final line is discarded.

    Raises ArchiveCorrupt for a line that does not parse before the last
    one, or parses but is no entry, naming it by its place in the file, and
    IndexGap or DuplicateIndex for an entry out of sequence.
    """
    path = Path(archive_path)
    if not path.exists():
        return []
    entries: list[ArchiveEntry] = []
    lines = [raw for raw in path.read_text(encoding="utf-8").splitlines() if raw.strip()]
    for n, raw in enumerate(lines, 1):
        expected = (entries[-1].i + 1) if entries else 1
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            if n == len(lines):
                break  # crash tail: resume from the last complete entry
            raise ArchiveCorrupt(expected, f"torn line before the end ({exc})") from exc
        entry = _decoded(expected, "line", ArchiveEntry.from_json, data)
        if entry.i < expected:
            raise DuplicateIndex(entry.i, f"repeated where entry {expected} was expected")
        if entry.i > expected:
            raise IndexGap(entry.i, f"found where entry {expected} was expected")
        entries.append(entry)
    return entries


class ReplayStep(NamedTuple):
    entry: ArchiveEntry
    candidate: MetaProgram  # the accepted candidate, decoded from p
    task: Task
    trace: Optional[Trace]
    params: Optional[CostParams]  # a ledger entry's stored cost parameters
    ledger: Optional[tuple]  # a ledger entry's stored (c, c*), as Fractions


class Replay:
    """The state that an archive's acceptances add up to, rebuilt entry by entry.

    Resume, audit and report all iterate one over entries they loaded.  Each
    step carries an entry with its decoded candidate, task and trace and,
    for a ledger entry, its cost parameters with the external rewards known
    so far and its c and c*.  Every entry of an archive carries a ledger or
    none does, as its first entry sets (``ledger``): an entry that differs,
    or carries only part of one, raises ArchiveCorrupt.
    While a step is out, ``repertoire`` still holds only the tasks of earlier
    entries, the set the entry was judged against, and ``origins`` and
    ``external_rewards`` already include the entry.  Each distinct task joins
    the repertoire once, with the trace of its first entry.  A decision task's
    trace is the proof that it was solved, so an entry of one without its trace
    raises ArchiveCorrupt, unless it is a ledger entry re-proposing a known
    task (variant II only; variant I accepts no task twice).  An external
    entry's reward must be an integer, and an appended span must start at
    the previous entry's ``solver_slots`` (0 for entry 1), where the commit
    appended it, or the entry raises ArchiveCorrupt.  So must a snapshot
    whose frozen fields freeze other than nothing or, as prefix mode does,
    every slot and row, or other than the first non-empty snapshot does
    (``frozen``).  Solvers are left to the caller: only the audit needs
    every one, and it checks each entry's ``solver_slots`` against its
    snapshot.
    """

    def __init__(self, entries: list):
        self.entries = entries
        self.repertoire: list[RepertoireItem] = []
        self.items: dict[str, RepertoireItem] = {}  # task identity -> repertoire item
        self.origins: dict[str, str] = {}  # task identity -> origin of its first entry
        self.external_rewards: dict[str, int] = {}  # task identity -> user reward
        self.ledger: Optional[bool] = None  # whether the entries carry a ledger
        self.frozen: Optional[bool] = None  # whether the snapshots freeze everything

    def __iter__(self) -> Iterator[ReplayStep]:
        last = last_stored = None  # the latest ledger entry's parameters, decoded and as stored
        slots = 0  # the previous entry's solver_slots
        for entry in self.entries:
            candidate = entry.candidate()
            task = entry.task_obj()
            trace = entry.trace_obj()
            identity = task.identity()
            first = identity not in self.items
            self.origins.setdefault(identity, entry.origin)
            if entry.origin == "external" and "reward" in entry.meta:
                reward = entry.meta["reward"]
                if type(reward) is not int:
                    raise ArchiveCorrupt(entry.i, f"reward {reward!r} is no integer")
                self.external_rewards[identity] = reward
            span = entry.meta.get("appended")
            if span is not None and span[0] != slots:
                raise ArchiveCorrupt(entry.i, f"appended span {span} is not at slot {slots}")
            slots = entry.meta.get("solver_slots")
            self._check_frozen(entry, slots)
            params = ledger = None
            carries = self._carries_ledger(entry)
            if trace is None and isinstance(task, DecisionTask) and (first or not carries):
                raise ArchiveCorrupt(entry.i, "decision task without its trace")
            if carries:
                ledger = (
                    _decoded(entry.i, "c", parse_ratio, entry.c),
                    _decoded(entry.i, "c_star", parse_ratio, entry.c_star),
                )
                # A run stores the same parameters in every ledger entry, so
                # they are decoded again only when they or the rewards change.
                stored = entry.meta.get("cost_params")
                rewards = self.external_rewards
                if last is None or stored != last_stored or last.external_rewards != rewards:
                    last = _decoded(
                        entry.i,
                        "cost_params",
                        lambda: CostParams.from_json(entry.meta["cost_params"], rewards),
                    )
                    last_stored = stored
                params = last
            yield ReplayStep(entry, candidate, task, trace, params, ledger)
            if first:
                item = RepertoireItem(len(self.repertoire) + 1, task, trace)
                self.repertoire.append(item)
                self.items[identity] = item

    def _check_frozen(self, entry: ArchiveEntry, slots) -> None:
        """The snapshot must freeze nothing, (0, []), or, as prefix mode does,
        everything, (solver_slots, every entry key), and as the first
        non-empty snapshot does."""
        solver = entry.solver
        fields, rows = _decoded(
            entry.i,
            "solver",
            lambda: (
                (solver.get("frozen_prefix_len", 0), solver.get("frozen_entry_keys", [])),
                sorted(solver.get("entries", {})),
            ),
        )
        frozen = fields == (slots, rows)
        if not frozen and fields != (0, []):
            raise ArchiveCorrupt(entry.i, f"frozen fields {fields} freeze neither nothing nor all")
        if fields == (0, []) == (slots, rows):
            return  # an empty snapshot is in both forms
        if self.frozen not in (None, frozen):
            raise ArchiveCorrupt(entry.i, f"frozen fields {fields} differ in form from earlier ones")
        self.frozen = frozen

    def _carries_ledger(self, entry: ArchiveEntry) -> bool:
        """Whether the entry carries a ledger, which it must do as entry 1 does."""
        parts = (entry.c is not None, entry.c_star is not None, "cost_params" in entry.meta)
        carries = any(parts)
        if self.ledger is None:
            self.ledger = carries
        elif carries != self.ledger:
            if carries:
                raise ArchiveCorrupt(entry.i, "carries a ledger where entry 1 has none")
            raise ArchiveCorrupt(entry.i, "carries no ledger where entry 1 has one")
        if carries and not all(parts):
            missing = [n for n, p in zip(("c", "c_star", "cost_params"), parts) if not p]
            raise ArchiveCorrupt(entry.i, f"ledger entry without {', '.join(missing)}")
        return carries


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


class MalformedQueue(ConfigError):
    """An external-task queue line that is no task."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"external task line {line}: {reason}")
        self.line = line  # 1-based, blank lines counted


def load_external_queue(path) -> list[ExternalTask]:
    """The queued external tasks; a line that is no task, or whose reward is
    no integer, raises MalformedQueue."""
    p = Path(path)
    if not str(path) or not p.exists():
        return []
    out = []
    for n, raw in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        if not raw.strip():
            continue
        try:
            data = json.loads(raw)
            reward = data.pop("reward", None)
            task = task_from_json(data)
        except _SHAPE_ERRORS as exc:
            raise MalformedQueue(n, f"no task ({exc!r})") from exc
        if reward is not None and type(reward) is not int:
            raise MalformedQueue(n, f"reward {reward!r} is no integer")
        out.append(ExternalTask(task, reward))
    return out


def save_external_queue(path, items: list[ExternalTask]) -> None:
    lines = []
    for item in items:
        data = item.task.to_json()
        if item.reward is not None:
            data["reward"] = item.reward
        lines.append(json.dumps(data, sort_keys=True, separators=(",", ":")))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
