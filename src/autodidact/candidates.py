"""The candidate space: grammar-valid meta programs in shortlex buckets.

A candidate is an inventor, a modifier and directives, each terminated.
Buckets hold every viable candidate of one encoded length in shortlex
order, and every entry has its StaticRecord: what the candidate's own bits
decide before it can read any context.  Records are composed from the walks
of the candidate's inventor and modifier bodies, and bodies that walk alike
form classes, so a bucket's StaticRecord groups, their sizes and the pairs
of classes each group is made of can be counted without building a single
entry (CandidateSpace.counted_bucket).  A group is built on its own, from
the bodies of its classes only (CandidateSpace.bucket), and the scheduler in
search.py builds a group only when it must run some of it.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

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
    program,
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


def _op_walks(codes, walk: Callable) -> dict:
    """For each op code, {the op's walk: the immediates that give it, in order}."""
    out: dict = {}
    for code in sorted(codes):
        by_walk = out[code] = {}
        for args in _arg_space(code):
            by_walk.setdefault(walk(code, args), []).append(args)
    return out


def _instr_token(code: int, args: tuple) -> tuple[int, int]:
    v = code
    for a in args:
        v = (v << ARG_BITS) | a
    return v, OPCODE_BITS + ARG_BITS * len(args)


_EMPTY_BODY = (0, 0, ())  # (value, bits, instrs) of the empty body


class _Bodies:
    """The bodies of one candidate part, classed by (walk, stack needs, stack net).

    ``heads(key)`` gives (op code, tail key) for each op a body of ``key``
    starts with; a tail key of None ends the body after that op.
    ``empty(key)`` says whether the empty body has that key.  Every body
    is a head op followed by a body of its tail, so a key's classes and
    their sizes follow from the tails' classes (classes), and the bodies of
    one class from the tails' bodies in the classes that compose to it
    (bodies), without building any other class.
    """

    def __init__(self, codes, op_walk: Callable, state: Callable, empty_walk: tuple, heads, empty):
        self.ops = _op_walks(codes, op_walk)
        self.state = state
        self.end = (empty_walk, 0, 0)  # the empty body's class
        self.heads = heads
        self.empty = empty
        self._classes: dict = {}  # key -> {class: how many bodies}
        self._splits: dict = {}  # key -> {class: [(code, head walk, tail key, tail class)]}
        self._bodies: dict = {}  # (key, class) -> [(value, bits, instrs)]

    def _compositions(self, key):
        """(class, code, head walk, tail key, tail class, how many bodies) for each
        head walk and tail class a body of ``key`` composes from."""
        state = self.state
        for code, tail in self.heads(key):
            eff = _effect(code)
            tails = {self.end: 1} if tail is None else self.classes(tail)
            for head, args in self.ops[code].items():
                for tail_cls, m in tails.items():
                    walk, needs, net = tail_cls
                    cls = (_then(head, walk, state), *_compose(eff, (needs, net)))
                    yield cls, code, head, tail, tail_cls, len(args) * m

    def classes(self, key) -> dict:
        """{(walk, needs, net): how many bodies of ``key`` share it}."""
        out = self._classes.get(key)
        if out is None:
            out = {self.end: 1} if self.empty(key) else {}
            for cls, _code, _head, _tail, _tail_cls, k in self._compositions(key):
                out[cls] = out.get(cls, 0) + k
            self._classes[key] = out
        return out

    def bodies(self, key, cls: tuple) -> list:
        """The bodies of ``key`` in class ``cls``, as (value, bits, instrs)."""
        out = self._bodies.get((key, cls))
        if out is not None:
            return out
        splits = self._splits.get(key)
        if splits is None:
            splits = self._splits[key] = {}
            for c, code, head, tail, tail_cls, _k in self._compositions(key):
                splits.setdefault(c, []).append((code, head, tail, tail_cls))
        out = [_EMPTY_BODY] if cls == self.end and self.empty(key) else []
        for code, head, tail, tail_cls in splits.get(cls, ()):
            tails = [_EMPTY_BODY] if tail is None else self.bodies(tail, tail_cls)
            for args in self.ops[code][head]:
                hv, hn = _instr_token(code, args)
                instr = ((code, args),)
                out.extend([((hv << tn) | tv, hn + tn, instr + ti) for tv, tn, ti in tails])
        self._bodies[key, cls] = out
        return out


class CandidateSpace:
    """Shortlex buckets of well-formed candidates, counted before they are built.

    A candidate is stored as (bit value, inventor, modifier, directives), the
    last three as instruction tuples; the encoding is reconstructed
    arithmetically so nothing is ever re-decoded.  Bodies are classed by
    (walk, stack needs, stack net), so impossible programs never reach the
    interpreter and every entry's StaticRecord is composed from its two
    classes' walks.  counted_bucket gives a bucket's StaticRecord groups and
    their sizes from the classes alone, and the parts of each group: the
    pairs of classes that compose to it.  bucket builds one group from its
    parts' bodies, building no body outside them.
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
        self._inv = _Bodies(
            task_ops | COMPUTE_OPS,
            _inv_op,
            _inv_state,
            _INV_EMPTY,
            self._inv_heads,
            lambda b: external and b == 0,
        )
        self._mod = _Bodies(
            EDIT_OPS | COMPUTE_OPS,
            _mod_op,
            _mod_state,
            _MOD_EMPTY,
            self._mod_heads,
            lambda key: key == (0, True),
        )
        self._counted: dict[int, list] = {}
        self._parts: dict[tuple, list] = {}  # (total, record) -> the group's parts
        self._buckets: dict[tuple, list] = {}  # (total, record) -> the built group
        self._interned: dict = {}

    # The grammar: an internal inventor body is a task op, or a compute op
    # followed by an inventor body; an external one is empty.  Inventor
    # bodies are keyed by their bits.  A modifier body is an edit or compute
    # op followed by a modifier body, or empty once it holds an edit op; it
    # is keyed by (bits, whether an edit op came before it).

    def _inv_heads(self, b: int):
        if self.external:
            return
        for code in sorted(set(self.task_ops) | set(self.compute_ops)):
            w = META_ISA.width(code)
            if code in self.task_ops:
                if w == b:
                    yield code, None
            elif w < b:
                yield code, b - w

    def _mod_heads(self, key: tuple):
        b, has_edit = key
        for code in sorted(set(self.edit_ops) | set(self.compute_ops)):
            w = META_ISA.width(code)
            if w <= b:
                yield code, (b - w, has_edit or code in EDIT_OPS)

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
        """A bucket's StaticRecord groups as (StaticRecord, size) pairs, built without entries.

        A group's size is the sum, over its parts, of |inventor class| x
        |modifier class|.  A part is (inventor bits, modifier bits, inventor
        class, modifier class) for a pair of classes whose walks compose to
        the group's record and whose stack needs the inventor's net covers;
        the directives take the remaining bits.  Raises SearchCeilingReached
        where materializing the bucket would blow the resource guard: at the
        first split whose upper bound, the entries so far plus |inventors| x
        |modifiers| x |directives|, exceeds it.  At that point no acceptable
        pair is reachable within realistic memory, which is the same outcome
        as an exhausted budget.
        """
        counted = self._counted.get(total_bits)
        if counted is not None:
            return counted
        body = total_bits - 3 * OPCODE_BITS
        sizes: dict = {}
        parts: dict = {}
        n = 0
        for b1 in range(0, body + 1):
            inv = [(cls, k) for cls, k in self._inv.classes(b1).items() if cls[1] == 0]
            if not inv:
                continue
            n_inv = sum(k for _cls, k in inv)
            for b2 in range(0, body - b1 + 1):
                mod = self._mod.classes((b2, False))
                directives = self._directives(body - b1 - b2)
                if not mod or directives is None:
                    continue
                if n + n_inv * sum(mod.values()) > BUCKET_GUARD:
                    raise SearchCeilingReached(
                        f"candidate bucket at {total_bits} bits exceeds the resource guard"
                    )
                for cls1, k1 in inv:
                    for cls2, k2 in mod.items():
                        if cls2[1] <= cls1[2]:  # else it would underflow the shared stack
                            rec = _record(cls1[0], cls2[0], len(directives[2]))
                            sizes[rec] = sizes.get(rec, 0) + k1 * k2
                            parts.setdefault(rec, []).append((b1, b2, cls1, cls2))
                            n += k1 * k2
        interned = self._interned
        counted = [(interned.setdefault(rec, rec), k) for rec, k in sizes.items()]
        self._parts.update(((total_bits, rec), parts[rec]) for rec, _k in counted)
        self._counted[total_bits] = counted
        return counted

    def _products(self, total_bits: int, record: StaticRecord):
        """Per part of a group: (inventor bodies, shift, modifiers, directives).

        An entry's value is ``((v1 << OPCODE_BITS) | TERMINATOR) << shift |
        low`` for an inventor body of value v1 and a modifier (low, instrs):
        p1 TERM p2 TERM p3 TERM, each modifier's bits and all below them.
        """
        body = total_bits - 3 * OPCODE_BITS
        for b1, b2, cls1, cls2 in self._parts[total_bits, record]:
            v3, n3, i3 = self._directives(body - b1 - b2)
            tail = (((TERMINATOR << n3) | v3) << OPCODE_BITS) | TERMINATOR
            below = n3 + 2 * OPCODE_BITS
            mods = [((v2 << below) | tail, i2) for v2, _n2, i2 in self._mod.bodies((b2, False), cls2)]
            yield self._inv.bodies(b1, cls1), b2 + below, mods, i3

    def bucket(self, total_bits: int, record: StaticRecord) -> list:
        """The entries of one StaticRecord group of a bucket, in shortlex order.

        Every entry of a bucket has the same length, so shortlex order is
        value order.  The group is, per part, every inventor body of one
        class under every modifier body of the other.  Raises
        SearchCeilingReached where counted_bucket does.  The group is kept in
        ``_buckets``; group() looks there first and builds only on a miss.
        """
        self.counted_bucket(total_bits)
        out = []
        for invs, shift, mods, i3 in self._products(total_bits, record):
            for v1, _n1, i1 in invs:
                head = ((v1 << OPCODE_BITS) | TERMINATOR) << shift
                out.extend([(head | low, i1, i2, i3) for low, i2 in mods])
        out.sort(key=itemgetter(0))
        self._buckets[total_bits, record] = out
        return out

    def group(self, total_bits: int, record: StaticRecord) -> list:
        """bucket(total_bits, record), built on first use."""
        built = self._buckets.get((total_bits, record))
        return self.bucket(total_bits, record) if built is None else built

    def count_below(self, total_bits: int, record: StaticRecord, value: int) -> int:
        """How many entries of a group have a value below ``value``, counted
        part by part without building the group."""
        n = 0
        for invs, shift, mods, _i3 in self._products(total_bits, record):
            top, low = value >> shift, value & ((1 << shift) - 1)
            for v1, _n1, _i1 in invs:
                head = (v1 << OPCODE_BITS) | TERMINATOR
                if head < top:
                    n += len(mods)
                elif head == top:
                    n += sum(1 for low2, _i2 in mods if low2 < low)
        return n

    def whole_bucket(self, total_bits: int) -> list:
        """All viable candidates of exactly total_bits in shortlex order: the
        merge of the bucket's groups."""
        groups = [self.group(total_bits, rec) for rec, _k in self.counted_bucket(total_bits)]
        return list(heapq.merge(*groups, key=itemgetter(0)))

    def candidates(self, max_len_bits: int):
        """Shortlex stream of MetaPrograms up to the given encoded length."""
        for total in range(3 * OPCODE_BITS, max_len_bits + 1):
            for entry in self.whole_bucket(total):
                yield program(entry, total)


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
