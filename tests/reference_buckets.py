"""The whole-bucket builder, kept as an independent reference for the tests.

It builds every inventor and modifier body of a length, then every viable
pairing of them, and sorts the bucket lexicographically.  It shares only the
op walks and their composition with CandidateSpace, not its classes, parts
or group builder, so a group built from classes can be checked against it.
"""

from autodidact import candidates
from autodidact.candidates import (
    _INV_EMPTY,
    _MOD_EMPTY,
    _arg_space,
    _compose,
    _effect,
    _inv_op,
    _inv_state,
    _mod_op,
    _mod_state,
    _record,
    _then,
)
from autodidact.isa import ARG_BITS, OPCODE_BITS, TERMINATOR
from autodidact.meta import EDIT_OPS, META_ISA

_INV_END = (0, 0, (), 0, 0, _INV_EMPTY)  # the empty inventor body
_MOD_END = (0, 0, (), 0, 0, _MOD_EMPTY)


class ReferenceBuckets:
    """Whole buckets of one candidate space: (entries, records), entry for entry.

    Bodies of exactly ``b`` bits are lists of (value, bits, instrs, needs,
    net, walk) in lexicographic order.
    """

    def __init__(self, space: candidates.CandidateSpace):
        self.space = space
        self.inv_ops = self._op_walks(space.task_ops + space.compute_ops, _inv_op)
        self.mod_ops = self._op_walks(space.edit_ops + space.compute_ops, _mod_op)
        self._inv: dict = {}
        self._mod: dict = {}

    @staticmethod
    def _op_walks(codes, walk) -> dict:
        return {code: [(args, walk(code, args)) for args in _arg_space(code)] for code in codes}

    @staticmethod
    def _token(code: int, args: tuple) -> tuple:
        v = code
        for a in args:
            v = (v << ARG_BITS) | a
        return v, OPCODE_BITS + ARG_BITS * len(args)

    def _prepend(self, out: list, code: int, tails: list, ops: dict, state) -> None:
        eff = _effect(code)
        for args, head in ops[code]:
            hv, hn = self._token(code, args)
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

    def inv_bodies(self, b: int) -> list:
        if b not in self._inv:
            space = self.space
            out = []
            if not space.external:
                for code in sorted(space.task_ops + space.compute_ops):
                    w = META_ISA.width(code)
                    if code in space.task_ops and w == b:
                        self._prepend(out, code, [_INV_END], self.inv_ops, _inv_state)
                    elif code in space.compute_ops and w < b:
                        tails = self.inv_bodies(b - w)
                        self._prepend(out, code, tails, self.inv_ops, _inv_state)
            elif b == 0:
                out.append(_INV_END)
            self._inv[b] = out
        return self._inv[b]

    def mod_bodies(self, b: int, has_edit: bool = False) -> list:
        key = (b, has_edit)
        if key not in self._mod:
            space = self.space
            out = [_MOD_END] if b == 0 and has_edit else []
            for code in sorted(space.edit_ops + space.compute_ops):
                w = META_ISA.width(code)
                if w <= b:
                    tails = self.mod_bodies(b - w, has_edit or code in EDIT_OPS)
                    self._prepend(out, code, tails, self.mod_ops, _mod_state)
            self._mod[key] = out
        return self._mod[key]

    def bucket(self, total: int) -> tuple:
        """(entries, records): every viable candidate of ``total`` bits in
        lexicographic order, each entry (value, inventor, modifier,
        directives), and each entry's StaticRecord."""
        body = total - 3 * OPCODE_BITS
        out, values, records = [], [], []
        for b1 in range(body + 1):
            inv = [body1 for body1 in self.inv_bodies(b1) if body1[3] == 0]
            if not inv:
                continue
            for b2 in range(body - b1 + 1):
                mod = self.mod_bodies(b2)
                directives = self.space._directives(body - b1 - b2)
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
                            rec = row[w] = _record(walk1, mod_walks[w], len(i3))
                        v = (head << shift) | low
                        out.append((v, i1, i2, i3))
                        values.append(v)
                        records.append(rec)
        order = sorted(range(len(out)), key=values.__getitem__)
        return [out[k] for k in order], [records[k] for k in order]

    def trips_the_guard(self, total: int) -> bool:
        """The resource guard's rule on built bodies: before each split, the
        entries so far plus |inventors| x |modifiers| x |directives|."""
        body = total - 3 * OPCODE_BITS
        entries = 0
        for b1 in range(body + 1):
            inv = [body1 for body1 in self.inv_bodies(b1) if body1[3] == 0]
            if not inv:
                continue
            for b2 in range(body - b1 + 1):
                mod = self.mod_bodies(b2)
                if not mod or self.space._directives(body - b1 - b2) is None:
                    continue
                if entries + len(inv) * len(mod) > candidates.BUCKET_GUARD:
                    return True
                entries += sum(1 for body1 in inv for body2 in mod if body2[3] <= body1[4])
        return False
