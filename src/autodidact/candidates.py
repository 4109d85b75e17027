"""The candidate space: grammar-valid meta programs in shortlex buckets.

A candidate is an inventor, a modifier and directives, each terminated.
Buckets hold every viable candidate of one encoded length in shortlex
order, and every entry carries its StaticRecord: what the candidate's own
bits decide before it can read any context.  Records are composed from the
walks of the candidate's inventor and modifier bodies, and bodies that walk
alike form classes, so a bucket's StaticRecord groups and their sizes can be
counted without building a single entry (CandidateSpace.counted_bucket).
The scheduler in search.py builds a bucket only when it must run some of it.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple, Optional

from .bits import BitString
from .isa import ARG_BITS, OPCODE_BITS, TERMINATOR
from .meta import (
    COMPUTE_OPS,
    EDIT_OPS,
    GRID_TASK_OPS,
    META_ISA,
    M_E_TRUNC,
    M_V_DESC,
    PATTERN_TASK_OPS,
    TASK_OPS,
    MetaProgram,
    reads_context,
    static_fault,
)


class SearchCeilingReached(RuntimeError):
    """No acceptable pair within the configured budget; the engine halts gracefully."""


# Materializing one shortlex bucket beyond this many candidates would exhaust
# memory long before the time limit matters; treat it as hitting the ceiling.
BUCKET_GUARD = 4_000_000


# ---------------------------------------------------------------------------
# Candidate space: grammar-valid programs in shortlex order
# ---------------------------------------------------------------------------

_V_CODE = M_V_DESC


def _arg_space(code: int):
    nargs = META_ISA.by_code[code].nibbles
    if nargs == 0:
        return ((),)
    if nargs == 1:
        return tuple((a,) for a in range(16))
    return tuple((a, b) for a in range(16) for b in range(16))


# Static stack effect of each opcode: (cells required, net change).  The
# meta stack starts empty, so any candidate that must underflow can never be
# well-behaved; such programs are pruned at enumeration time, which is
# observationally identical to running and rejecting them.
_STACK_EFFECT = {
    "MPUSH": (0, 1),
    "MSHL": (1, 0),
    "MDUP": (1, 1),
    "MADD": (2, -1),
    "ULOAD": (1, 0),
    "USTORE": (2, -2),
    "RD_TASK": (1, 0),
    "RD_SIZE": (0, 1),
    "RD_SOLV": (1, 0),
    "E_SET": (2, -2),
    "E_TRUNC": (1, -1),
}


def _effect(code: int) -> tuple[int, int]:
    return _STACK_EFFECT.get(META_ISA.by_code[code].name, (0, 0))


def _compose(first: tuple[int, int], rest: tuple[int, int]) -> tuple[int, int]:
    need = max(first[0], rest[0] - first[1])
    return need, first[1] + rest[1]


# ---------------------------------------------------------------------------
# Walks: what an op sequence's own bits decide before it runs
# ---------------------------------------------------------------------------

EXTERNAL_KEY = ()  # task key of an inventor without a task op: the queued task

# A walk is (steps, fault, state).  ``state`` is None when the walk stopped
# at its ``steps``-th op: on ``fault``, or, when fault is None, at an op whose
# fault or bill may depend on the context.  Otherwise the walk reached the
# end of its ops, ``steps`` of them, and ``state`` is what it carries on: an
# inventor's task key (its last task op, EXTERNAL_KEY before any), or
# whether a modifier is append-only (holds no E_TRUNC).
_INV_EMPTY = (0, None, EXTERNAL_KEY)
_MOD_EMPTY = (0, None, True)


def _inv_op(code: int, args: tuple) -> tuple:
    """The walk of one inventor op: only task ops fault on their immediates."""
    if code in TASK_OPS:
        msg = static_fault(code, args)
        if msg is not None:
            return 1, f"malformed_task: {msg}", None
        return 1, None, (code, args)
    return 1, None, None if reads_context(code, args) else EXTERNAL_KEY


def _mod_op(code: int, args: tuple) -> tuple:
    """The walk of one modifier op."""
    if reads_context(code, args):
        return 1, None, None
    msg = static_fault(code, args)
    if msg is not None:
        return 1, f"malformed_edit: {msg}", None
    return 1, None, code != M_E_TRUNC


def _inv_state(key: tuple, later: tuple) -> tuple:
    return later or key  # the last task op's key


def _mod_state(append_only: bool, later: bool) -> bool:
    return append_only and later  # no E_TRUNC in either part


def _then(first: tuple, rest: tuple, state: Callable) -> tuple:
    """The walk of ``first``'s ops followed by ``rest``'s."""
    steps, _fault, carried = first
    if carried is None:
        return first
    more, fault, later = rest
    return steps + more, fault, None if later is None else state(carried, later)


def _op_walks(codes, walk: Callable) -> tuple[dict, dict]:
    """For each op code, [(args, the op's walk)] over every immediate it
    takes, and {walk: how many immediates give it}."""
    walks = {code: [(args, walk(code, args)) for args in _arg_space(code)] for code in codes}
    return walks, {code: Counter(w for _args, w in pairs) for code, pairs in walks.items()}


_INV_END = (0, 0, (), 0, 0, _INV_EMPTY)  # the empty inventor body
_MOD_END = (0, 0, (), 0, 0, _MOD_EMPTY)
_INV_END_CLASS = (_INV_EMPTY, 0, 0)
_MOD_END_CLASS = (_MOD_EMPTY, 0, 0)


class CandidateSpace:
    """Shortlex buckets of well-formed candidates, counted before they are built.

    A candidate is stored as (bit value, bit length, instruction parts); the
    encoding is reconstructed arithmetically so nothing is ever re-decoded.
    Bodies carry their static stack demands so impossible programs never
    reach the interpreter, and their walks, from which each entry's
    StaticRecord is composed.  The same grammar also classes bodies by
    (walk, stack needs, stack net) without building any, so counted_bucket
    gives a bucket's StaticRecord groups and their sizes at a fraction of
    the cost of bucket, which builds the entries.
    """

    def __init__(self, domain: str, external: bool):
        task_ops = set(TASK_OPS)
        if domain == "pattern":
            task_ops -= GRID_TASK_OPS
        elif domain == "gridworld":
            task_ops -= PATTERN_TASK_OPS
        self.task_ops = sorted(task_ops)
        self.edit_ops = sorted(EDIT_OPS)
        self.compute_ops = sorted(COMPUTE_OPS)
        self.external = external
        self._inv_ops, self._inv_op_classes = _op_walks(task_ops | COMPUTE_OPS, _inv_op)
        self._mod_ops, self._mod_op_classes = _op_walks(EDIT_OPS | COMPUTE_OPS, _mod_op)
        self._inv: dict[int, list] = {}
        self._mod: dict[tuple, list] = {}
        self._inv_counts: dict[int, dict] = {}
        self._mod_counts: dict[tuple, dict] = {}
        self._buckets: dict[int, list] = {}
        self._static: dict[int, list] = {}
        self._groups: dict[int, dict] = {}
        self._counted: dict[int, list] = {}
        self._interned: dict = {}

    # The grammar: an internal inventor body is a task op, or a compute op
    # followed by an inventor body; an external one is empty.  A modifier
    # body is an edit or compute op followed by a modifier body, or empty
    # once it holds an edit op.  Bodies of exactly ``b`` bits are lists of
    # (value, bits, instrs, needs, net, walk) in lexicographic order, and
    # their classes map (walk, needs, net) to how many bodies share it.

    def _instr_token(self, code: int, args: tuple) -> tuple[int, int]:
        v = code
        for a in args:
            v = (v << ARG_BITS) | a
        return v, OPCODE_BITS + ARG_BITS * len(args)

    def _inv_heads(self, b: int):
        """(op, tail bits) for each op an internal inventor body of ``b`` bits
        starts with, in code order; a task op ends the body (tail None)."""
        for code in sorted(set(self.task_ops) | set(self.compute_ops)):
            w = META_ISA.width(code)
            if code in self.task_ops:
                if w == b:
                    yield code, None
            elif w < b:
                yield code, b - w

    def _mod_heads(self, b: int, has_edit: bool):
        """(op, tail key) for each op a modifier body of ``b`` bits starts
        with, in code order."""
        for code in sorted(set(self.edit_ops) | set(self.compute_ops)):
            w = META_ISA.width(code)
            if w <= b:
                yield code, (b - w, has_edit or code in EDIT_OPS)

    def _prepend(self, out: list, code: int, tails: list, ops: dict, state: Callable) -> None:
        eff = _effect(code)
        for args, head in ops[code]:
            hv, hn = self._instr_token(code, args)
            for tv, tn, ti, needs, net, walk in tails:
                out.append(
                    (
                        (hv << tn) | tv,
                        hn + tn,
                        ((code, args),) + ti,
                        *_compose(eff, (needs, net)),
                        _then(head, walk, state),
                    )
                )

    def _prepend_classes(
        self, out: dict, code: int, tails: dict, classes: dict, state: Callable
    ) -> None:
        eff = _effect(code)
        for head, k in classes[code].items():
            for (walk, needs, net), m in tails.items():
                key = (_then(head, walk, state), *_compose(eff, (needs, net)))
                out[key] = out.get(key, 0) + k * m

    def _inv_bodies(self, b: int) -> list:
        if b not in self._inv:
            out = []
            if not self.external:
                for code, tail in self._inv_heads(b):
                    tails = [_INV_END] if tail is None else self._inv_bodies(tail)
                    self._prepend(out, code, tails, self._inv_ops, _inv_state)
            elif b == 0:
                out.append(_INV_END)
            self._inv[b] = out
        return self._inv[b]

    def _mod_bodies(self, b: int, has_edit: bool = False) -> list:
        key = (b, has_edit)
        if key not in self._mod:
            out = [_MOD_END] if b == 0 and has_edit else []
            for code, tail in self._mod_heads(b, has_edit):
                self._prepend(out, code, self._mod_bodies(*tail), self._mod_ops, _mod_state)
            self._mod[key] = out
        return self._mod[key]

    def _inv_classes(self, b: int) -> dict:
        if b not in self._inv_counts:
            out: dict = {}
            if not self.external:
                for code, tail in self._inv_heads(b):
                    tails = {_INV_END_CLASS: 1} if tail is None else self._inv_classes(tail)
                    self._prepend_classes(out, code, tails, self._inv_op_classes, _inv_state)
            elif b == 0:
                out[_INV_END_CLASS] = 1
            self._inv_counts[b] = out
        return self._inv_counts[b]

    def _mod_classes(self, b: int, has_edit: bool = False) -> dict:
        key = (b, has_edit)
        if key not in self._mod_counts:
            out = {_MOD_END_CLASS: 1} if b == 0 and has_edit else {}
            for code, tail in self._mod_heads(b, has_edit):
                tails = self._mod_classes(*tail)
                self._prepend_classes(out, code, tails, self._mod_op_classes, _mod_state)
            self._mod_counts[key] = out
        return self._mod_counts[key]

    def _directives(self, b: int) -> Optional[tuple]:
        """The one directive body of ``b`` bits as (value, bits, instrs), if any."""
        if b % OPCODE_BITS:
            return None
        n = b // OPCODE_BITS
        v = 0
        for _ in range(n):
            v = (v << OPCODE_BITS) | _V_CODE
        return v, b, ((_V_CODE, ()),) * n

    def counted_bucket(self, total_bits: int) -> list:
        """grouped_bucket's groups as (StaticRecord, size) pairs, built without entries.

        A group's size is the sum, over the body splits, of |inventor class|
        x |modifier class| for every pair of classes whose walks compose to
        its record and whose stack needs the inventor's net covers.  Raises
        SearchCeilingReached where materializing the bucket would blow the
        resource guard: at the first split whose upper bound, the entries so
        far plus |inventors| x |modifiers| x |directives|, exceeds it.  At
        that point no acceptable pair is reachable within realistic memory,
        which is the same outcome as an exhausted budget.
        """
        counted = self._counted.get(total_bits)
        if counted is not None:
            return counted
        body = total_bits - 3 * OPCODE_BITS
        sizes: dict = {}
        n = 0
        for b1 in range(0, body + 1):
            inv = [
                (walk, net, k)
                for (walk, needs, net), k in self._inv_classes(b1).items()
                if needs == 0
            ]
            if not inv:
                continue
            n_inv = sum(k for _walk, _net, k in inv)
            for b2 in range(0, body - b1 + 1):
                mod = self._mod_classes(b2)
                directives = self._directives(body - b1 - b2)
                if not mod or directives is None:
                    continue
                if n + n_inv * sum(mod.values()) > BUCKET_GUARD:
                    raise SearchCeilingReached(
                        f"candidate bucket at {total_bits} bits exceeds the resource guard"
                    )
                for walk1, net1, k1 in inv:
                    for (walk2, needs2, _net2), k2 in mod.items():
                        if needs2 <= net1:  # else it would underflow the shared stack
                            rec = _record(walk1, walk2, len(directives[2]))
                            sizes[rec] = sizes.get(rec, 0) + k1 * k2
                            n += k1 * k2
        interned = self._interned
        counted = [(interned.setdefault(rec, rec), k) for rec, k in sizes.items()]
        self._counted[total_bits] = counted
        return counted

    def bucket(self, total_bits: int) -> list:
        """All viable candidates of exactly total_bits, sorted lexicographically.

        Raises SearchCeilingReached where counted_bucket does.  Builds each
        entry's StaticRecord too (see compiled_bucket), from its bodies'
        walks.
        """
        if total_bits in self._buckets:
            return self._buckets[total_bits]
        self.counted_bucket(total_bits)
        body = total_bits - 3 * OPCODE_BITS
        interned = self._interned
        out, values, records = [], [], []
        for b1 in range(0, body + 1):
            inv = [rec for rec in self._inv_bodies(b1) if rec[3] == 0]
            if not inv:
                continue
            for b2 in range(0, body - b1 + 1):
                mod = self._mod_bodies(b2)
                directives = self._directives(body - b1 - b2)
                if not mod or directives is None:
                    continue
                # p1 TERM p2 TERM p3 TERM: each modifier's shift and low bits,
                # under which the inventor's p1 TERM goes, and its walk's id.
                v3, n3, i3 = directives
                tail = (((TERMINATOR << n3) | v3) << OPCODE_BITS) | TERMINATOR
                below = n3 + 2 * OPCODE_BITS
                walk_ids: dict = {}  # modifier walk -> its index in mod_walks
                mods = []
                for v2, n2, i2, needs2, _net2, walk2 in mod:
                    w = walk_ids.setdefault(walk2, len(walk_ids))
                    mods.append((n2 + below, (v2 << below) | tail, i2, needs2, w))
                mod_walks = list(walk_ids)
                made: dict = {}  # inventor walk -> record by modifier walk index
                for v1, _n1, i1, _needs1, net1, walk1 in inv:
                    head = (v1 << OPCODE_BITS) | TERMINATOR
                    row = made.get(walk1)
                    if row is None:
                        row = made[walk1] = [None] * len(mod_walks)
                    for shift, low, i2, needs2, w in mods:
                        if needs2 > net1:
                            continue  # would underflow the shared stack
                        rec = row[w]
                        if rec is None:
                            rec = _record(walk1, mod_walks[w], len(i3))
                            rec = row[w] = interned.setdefault(rec, rec)
                        v = (head << shift) | low
                        out.append((v, i1, i2, i3))
                        values.append(v)
                        records.append(rec)
        order = sorted(range(len(out)), key=values.__getitem__)
        self._static[total_bits] = [records[k] for k in order]
        out = self._buckets[total_bits] = [out[k] for k in order]
        return out

    def compiled_bucket(self, total_bits: int) -> tuple[list, list]:
        """``bucket(total_bits)`` and, entry for entry, its StaticRecords.

        Records are interned: the 90k entries up to 39 bits share about
        4.4k distinct records.
        """
        return self.bucket(total_bits), self._static[total_bits]

    def grouped_bucket(self, total_bits: int) -> tuple[list, dict]:
        """``bucket(total_bits)`` and its entry indices grouped by StaticRecord.

        The groups map each record to its entries' sorted indices, in order
        of first index; the 90k entries up to 39 bits fall into about 5.8k
        groups.
        """
        entries, records = self.compiled_bucket(total_bits)
        groups = self._groups.get(total_bits)
        if groups is None:
            groups = self._groups[total_bits] = {}
            for i, rec in enumerate(records):
                groups.setdefault(rec, []).append(i)
        return entries, groups

    def candidates(self, max_len_bits: int):
        """Shortlex stream of MetaPrograms up to the given encoded length."""
        for total in range(3 * OPCODE_BITS, max_len_bits + 1):
            for v, i1, i2, i3 in self.bucket(total):
                yield MetaProgram(BitString(v, total), i1, i2, i3)


# ---------------------------------------------------------------------------
# StaticRecords: what a candidate's own bits decide before it runs
# ---------------------------------------------------------------------------


class StaticRecord(NamedTuple):
    """The context-free part of one candidate's run.

    ``certain`` unit charges are billed before anything that depends on the
    context can happen; if ``fault`` is set, the run then ends with that
    reason.  When the inventor reaches its end, ``key`` (the last task op, or
    EXTERNAL_KEY) is checked at the inventor/modifier boundary after
    ``key_steps`` charges; only a key that passes lets the record continue
    into the modifier.  ``key`` is None when the walk stopped earlier.

    ``append_only`` marks a walk that reached the end with no E_TRUNC: once
    its key passes, run_meta bills exactly ``certain`` steps and proposes
    the task of ``key`` with Appends and the automatic SetEntry only.
    """

    certain: int
    fault: Optional[str]
    key: Optional[tuple]
    key_steps: int
    append_only: bool = False


def _record(inventor: tuple, modifier: tuple, directives: int) -> StaticRecord:
    """The StaticRecord of a candidate whose bodies walk as given."""
    steps, fault, key = inventor
    if key is None:
        return StaticRecord(steps, fault, None, 0)
    more, fault, append_only = modifier
    if append_only is None:
        return StaticRecord(steps + more, fault, key, steps)
    return StaticRecord(steps + more + directives, None, key, steps, append_only)


def _walk(ops: tuple, op: Callable, state: Callable, end: tuple) -> tuple:
    for code, args in reversed(ops):
        end = _then(op(code, args), end, state)
    return end


def static_record(inventor: tuple, modifier: tuple, directives: tuple) -> StaticRecord:
    """Walk a candidate the way run_meta would, without any context.

    Every op bills one step before it acts.  The walk stops at the first op
    whose fault or bill may depend on the context, or at the first fault its
    immediates alone decide.  Stack faults cannot occur: the enumeration
    prunes underflows, and overflow needs more ops than any bucket holds.
    The edit ops a full walk can meet are templates 0 and 1 (which bill
    nothing extra), the other appending ops, and E_TRUNC.  The record is
    composed from the two bodies' walks, op by op, exactly as the candidate
    space composes and counts them.
    """
    return _record(
        _walk(inventor, _inv_op, _inv_state, _INV_EMPTY),
        _walk(modifier, _mod_op, _mod_state, _MOD_EMPTY),
        len(directives),
    )
