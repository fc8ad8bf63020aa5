"""Polarities between posets and their coherence hierarchy.

An order polarity is a pair of posets with a relation between them; an
extension polarity additionally embeds a common base poset into both
sides.  This module grades polarities by the coherence conditions they
satisfy, builds the canonical candidate preorders on the tagged union
of the two sides, and enumerates all preorders of a given grade.

A polarity keeps its relation once, as a pair mask.  Masks decide and
rows explain.  Each condition is decided on the mask
(`_Frame.mask_level`): C1, C2 and C4 as closure rules, products on
`order._PairLanes` that hold when the closure adds nothing, C7 and C8
through the realizable meets and joins on the same lanes
(`polab.oracles` keeps the scans over subsets of the base), the others
by one AND each.  The twins that decide, `meets` and `joins`, `z_s` and
`z_t` and the forbidden masks, stay on the lanes: a dual frame cost
`grade` 13.7% of its items/s.  A failed test is explained by its first
witness in quantifier order, read on the bit-rows (`_Frame.report`); C1,
C2, C7 and C8 read theirs with `_escapes`.  A relation on the tagged
union of the sides is graded on its packed matrix: an n-preorder is a
preorder that, for each clause of grade n's table (`_clauses`, packed
masks over the carrier), holds the pairs the clause forces and none of
those it forbids.  The first clause that fails and the lowest pair it
misses or holds give the verdict and its witness; the OR of the table
(`_grade_masks`) bounds enumeration.
"""

from __future__ import annotations

import functools
import operator
from collections import namedtuple
from itertools import islice

from .errors import (
    CarrierMismatch,
    CarrierTooLarge,
    LawViolation,
    NotCoherent,
    NotGalois,
    NotOnePreorder,
    PreservationViolation,
    UnknownId,
)
from .order import (
    MonotoneMap,
    UnionPreorder,
    _PairLanes,
    _back_block,
    _bounds_failure,
    _carrier_blocks,
    _closed_relations,
    _common,
    _expressible,
    _image_mask,
    _loose_pairs,
    _low_index,
    _mask_iter,
    _pack_blocks,
    _reflection_failure,
    _saturate,
    _transpose,
    cached_property,
    is_join_extension,
    is_meet_extension,
    kept,
    tag_x,
    tag_y,
)

DEFAULT_MAX_CARRIER = 7

CONDITION_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")


def carrier_gate(max_carrier=None):
    """The carrier size an uncapped enumeration may reach:
    `DEFAULT_MAX_CARRIER`, or `max_carrier`, which must be a non-negative
    integer (`ValueError` naming the argument otherwise)."""
    if max_carrier is None:
        return DEFAULT_MAX_CARRIER
    if isinstance(max_carrier, bool) or not isinstance(max_carrier, int) or max_carrier < 0:
        raise ValueError("max_carrier must be a non-negative integer, got %r" % (max_carrier,))
    return max_carrier


def _pair_mask(left, right, pairs):
    """The pair mask, bit i·|Y| + j for (x_i, y_j), of `pairs` on the sides
    indexed by `left` and `right`; `UnknownId` for the first pair off them,
    the witness the reader names for a `rel` line.  The one conversion of
    labelled pairs to a mask."""
    ny, m = len(right), 0
    try:
        for a, b in pairs:
            m |= 1 << left[a] * ny + right[b]
    except KeyError:
        side, e = ("left", a) if a not in left else ("right", b)
        raise UnknownId("relation uses unknown %s element %r" % (side, e), (a, b)) from None
    return m


def _pairs_of(xs, ys, m):
    """The pairs of the pair mask `m` on the sides `xs` and `ys`, the one
    conversion back to labels, as a list in mask order, read with the
    kernels' low-bit loop: `_mask_iter`, a generator, is resumed once per
    pair on Python 3.11."""
    ny, out = len(ys), []
    while m:
        low = m & -m
        p = low.bit_length() - 1
        out.append((xs[p // ny], ys[p % ny]))
        m ^= low
    return out


class ExtensionPolarity:
    """An order polarity whose sides both extend a common base poset.

    Its relation is held once, as its pair mask (`_mask`, bit i·|Y| + j
    for (x_i, y_j)), which equality and the hash read; the pair set `rel`,
    the condition frame, bit-rows and the one-step saturation of `r_hat_m`
    are built on first use and kept, and so is the hash."""

    def __init__(self, base, ex, ey, rel):
        if ex.base != base or ey.base != base:
            raise CarrierMismatch("both extensions must share the base poset")
        self.base = base
        self.ex = ex
        self.ey = ey
        self._mask = _pair_mask(ex.target.index, ey.target.index, rel)

    @cached_property
    def rel(self):
        """The relation as a frozenset of pairs (x, y), read off `_mask`."""
        return frozenset(_pairs_of(self.x.elements, self.y.elements, self._mask))

    @property
    def x(self):
        return self.ex.target

    @property
    def y(self):
        return self.ey.target

    def __eq__(self, other):
        return self is other or (
            isinstance(other, ExtensionPolarity)
            and self.base == other.base
            and self.ex == other.ex
            and self.ey == other.ey
            and self._mask == other._mask
        )

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        """The hash of the value, kept: the kept structures (`order.kept`)
        look the polarity up by it on every call."""
        return hash((self.base, self.ex, self.ey, self._mask))

    @classmethod
    def _of_mask(cls, frame, mask):
        """The polarity with pair mask `mask` on `frame`, which it keeps:
        both extensions must extend the frame's base and the mask lie in
        X × Y (`CarrierMismatch`)."""
        if frame.ex.base != frame.base or frame.ey.base != frame.base:
            raise CarrierMismatch("both extensions must share the base poset")
        if not 0 <= mask < 1 << len(frame.xs) * len(frame.ys):
            raise CarrierMismatch("pair mask reaches outside X × Y", mask)
        self = cls.__new__(cls)
        self.base, self.ex, self.ey, self._mask = frame.base, frame.ex, frame.ey, mask
        self._frame = frame
        return self

    def with_relation(self, rel):
        return self._of_mask(self._frame, self._frame.mask(rel))

    def carrier(self):
        return self._frame.carrier

    @cached_property
    def _frame(self):
        return _Frame(self.base, self.ex, self.ey)

    @cached_property
    def _rows(self):
        return tuple(map(tuple, self._frame.rows(self._mask)))

    @cached_property
    def _packed_across(self):
        """Its pairs, packed over the carrier."""
        return self._frame.pack(xy=self._rows[0])

    @cached_property
    def _p1(self):
        """P1 of `_clauses`: its pairs across forced, the others forbidden."""
        fr, r = self._frame, self._packed_across
        return ("P1", r, _carrier_blocks(len(fr.xs), len(fr.ys))[2] ^ r)

    @cached_property
    def _saturation(self):
        """`r_hat_m`, certified once: the saturation of a 1-coherent
        polarity must be a 1-preorder."""
        fr = self._frame
        r = fr.sides | self._packed_across
        out = fr.relation(_saturate(r, len(fr.xs), len(fr.ys), fr.exi, fr.eyi))
        if fr.mask_level(self._mask, 1) == 1:
            verdict = is_n_preorder(self, out, 1)
            if not verdict.ok:
                raise LawViolation(
                    "grade-1",
                    "saturation of a 1-coherent polarity must be a 1-preorder",
                    (verdict.clause, verdict.witness),
                )
        return out


class _Frame:
    """Index-level workspace for the conditions over one base and pair of
    side extensions.  A relation is a pair mask (`mask`), bit i·|Y| + j
    for (x_i, y_j), graded on the frame's `lanes`; its bit-rows `rx, ry`
    (`rows`) name a failure's witness.  What depends on the frame alone
    is built on first use and kept."""

    # The arrays are slots and only the kept values go to `__dict__`: on
    # Python 3.11, once a kept value is written to the instance dict,
    # loading an attribute kept there takes the slower dict path.
    __slots__ = (
        "xs", "ys", "ps", "xindex", "yindex", "xrows", "xcols", "yrows",
        "ycols", "prows", "exi", "eyi", "base", "ex", "ey", "carrier", "__dict__",
    )

    def __init__(self, base, ex, ey):
        X, Y = ex.target, ey.target
        self.base, self.ex, self.ey = base, ex, ey
        self.xs, self.ys, self.ps = X.elements, Y.elements, base.elements
        self.xindex, self.yindex = X.index, Y.index
        self.xrows, self.xcols, self.yrows, self.ycols = X.rows, X.cols, Y.rows, Y.cols
        self.prows, self.exi, self.eyi = base.rows, ex.map.idx, ey.map.idx
        self.carrier = tuple(map(tag_x, self.xs)) + tuple(map(tag_y, self.ys))

    def mask(self, pairs):
        """The pair mask of a relation given as pairs."""
        return _pair_mask(self.xindex, self.yindex, pairs)

    def pairs(self, m):
        """The pairs of the pair mask `m`."""
        return frozenset(_pairs_of(self.xs, self.ys, m))

    def rows(self, m):
        """The bit-rows `(rx, ry)` of the pair mask `m`, read without lanes."""
        ny = len(self.ys)
        rx = [m >> i * ny & (1 << ny) - 1 for i in range(len(self.xs))]
        return rx, _transpose(rx, ny)

    @cached_property
    def index(self):
        """The index of the carrier, shared by the frame's relations."""
        return {e: i for i, e in enumerate(self.carrier)}

    @cached_property
    def meet_side(self):
        return is_meet_extension(self.ex)

    @cached_property
    def join_side(self):
        return is_join_extension(self.ey)

    @cached_property
    def lanes(self):
        """The pair masks of the frame, the base image pairs as pivots."""
        return _PairLanes(self.xcols, self.yrows, zip(self.exi, self.eyi))

    # -- realizable meets and joins, and the pairs they force and forbid ----

    @cached_property
    def rises(self):
        """Per left element, the lanes above it."""
        return [self.lanes.spread(r) for r in self.xrows]

    @cached_property
    def meets(self):
        """The pairs (x, y) with x realizable at y, the meet of the images
        ex(k) above it with ey(k) above y: k covers the pairs below both."""
        lanes, images = self.lanes, zip(self.exi, self.eyi)
        covers = [lanes.spreads[i] * self.ycols[j] for i, j in images]
        return _realizable(lanes, covers, self.ex.map.pre_up, [r * lanes.full for r in self.rises])

    @cached_property
    def joins(self):
        """The pairs (x, y) with y realizable at x, the join of the images
        ey(k) below it with ex(k) below x: the dual of `meets` on the same
        lanes, so no dual frame is built."""
        lanes, images = self.lanes, zip(self.exi, self.eyi)
        covers = [self.rises[i] * self.yrows[j] for i, j in images]
        fences = [lanes.ones * c for c in self.ycols]
        return _realizable(lanes, covers, self.ey.map.pre_down, fences)

    @cached_property
    def z_s(self):
        """`meets` closed upward in X: (x, y) for the pair (y, x) forced
        below-left, x above a meet realizable at y."""
        full, ny = self.lanes.full, len(self.ys)
        return _or(r * (self.meets >> i * ny & full) for i, r in enumerate(self.rises))

    @cached_property
    def z_t(self):
        """`joins` closed downward in Y: y below a join realizable at x."""
        ones = self.lanes.ones
        return _or((self.joins >> j & ones) * down for j, down in enumerate(self.ycols))

    @cached_property
    def forbidden_c7(self):
        """C7's pairs (x, y): x a meet realizable at some y1, y not above y1."""
        ones, full, meets = self.lanes.ones, self.lanes.full, self.meets
        return _or((meets >> j & ones) * (full ^ up) for j, up in enumerate(self.yrows))

    @cached_property
    def forbidden_c8(self):
        """C7's dual, kept apart so that a grade failing C7 builds no joins."""
        ones, full, ny, joins = self.lanes.ones, self.lanes.full, len(self.ys), self.joins
        return _or((ones ^ d) * (joins >> i * ny & full) for i, d in enumerate(self.lanes.spreads))

    # -- packed relations on the carrier --------------------------------------

    def relation(self, m):
        """The relation on the carrier with the packed matrix `m`."""
        return UnionPreorder._of_packed(self.carrier, self.index, m, False)

    def pack(self, xx=None, yy=None, xy=None, yx=None):
        """The packed matrix with the given left, right, left-to-right and
        right-to-left blocks as bit-rows, empty where none is given."""
        nx, ny = len(self.xs), len(self.ys)
        return _pack_blocks(nx, xx or [0] * nx, yy or [0] * ny, xy or [0] * nx, yx or [0] * ny)

    @cached_property
    def sides(self):
        return self.pack(self.xrows, self.yrows)

    @cached_property
    def image_pairs(self):
        """Per base element, the pairs both ways between its two images."""
        nx, n, images = len(self.xs), len(self.carrier), zip(self.exi, self.eyi)
        return [1 << i * n + nx + j | 1 << (nx + j) * n + i for i, j in images]

    # -- the clauses of an n-preorder, each (name, pairs forced, pairs
    # forbidden) packed over the carrier (see `_clauses`) -----------------

    @cached_property
    def clauses(self):
        """Per grade below 3, its clauses: P2 and P3 force the side orders;
        from grade 1 commutation forces `image_pairs`; from grade 2
        reflectX and reflectY forbid the pairs along each side outside its
        order."""
        left, right, _ = _carrier_blocks(len(self.xs), len(self.ys))
        px, py = self.sides & left, self.sides & right
        table = (
            ("P2", px, 0),
            ("P3", py, 0),
            ("commutation", _or(self.image_pairs), 0),
            ("reflectX", 0, left ^ px),
            ("reflectY", 0, right ^ py),
        )
        return table[:2], table[:3], table

    @cached_property
    def back_clauses(self):
        """From grade 3, P4 and P5 force the right-to-left blocks of `z_s`
        and of `z_t`."""
        nx, ny = len(self.xs), len(self.ys)
        return (("P4", _back_block(self.z_s, nx, ny), 0), ("P5", _back_block(self.z_t, nx, ny), 0))

    def z_yx_alt(self):
        """Right-to-left block of the pairs (y, x) such that every base
        element sent below y on the right is below every base element sent
        above x on the left."""
        above, full, out = self.ex.map.pre_up, (1 << len(self.ps)) - 1, []
        for below in self.ey.map.pre_down:
            common = _common(self.prows, below, full)
            out.append(sum(1 << i for i, a in enumerate(above) if not a & ~common))
        return out

    @cached_property
    def slice_pairs(self):
        """The pair mask of the slice relation: x related to y when some base
        element has its left image above x and its right image below y."""
        lanes, m = self.lanes, 0
        for xi, yi in zip(self.exi, self.eyi):
            m |= lanes.spreads[xi] * self.yrows[yi]
        return m

    def slice_mask(self):
        """`slice_pairs`, which reaches grade 2; a failure raises
        `NotCoherent` naming the first failing condition of its `report`."""
        m = self.slice_pairs
        if self.mask_level(m, 2) != 2:
            conditions = self.report(m).conditions
            name = next(name for name in CONDITION_NAMES if not conditions[name][0])
            raise NotCoherent("slice relation fails %s" % name, conditions[name][1])
        return m

    # -- the grade and each condition on a pair mask m --------------------

    def mask_level(self, m, upto=3):
        """The grade of the relation with pair mask `m` capped at `upto`, None
        below grade 0; no grade past the first failing one is decided."""
        lanes = self.lanes
        if lanes.down_close(m) != m:
            return None
        if upto < 1 or lanes.pivot_bits & ~m or lanes.pivot_close(m) != m:
            return 0
        if upto < 2 or m & lanes.beside:
            return 1
        if upto < 3 or m & self.forbidden_c7 or m & self.forbidden_c8:
            return 2
        return 3

    def mask_grade(self, m):
        """`mask_level` of the pair mask `m` and whether it is Galois."""
        level = self.mask_level(m)
        return level, level == 3 and self.meet_side and self.join_side

    # Each reader decides its condition on m, or C1 and C2 on the bit-rows,
    # and, when it fails, returns its first witness in the order of
    # `oracles.oracle_report_conditions`.

    def c1(self, rx):
        """(x1, x2, y): the first x1 below an x2 related to a y that x1 is
        not, the first such x2 and the lowest such y."""
        for i, k, j in _escapes(self.xrows, rx, rx):
            return self.xs[i], self.xs[k], self.ys[j]

    def c2(self, ry):
        """(x, y1, y2): the first y2 above a y1 that an x is related to and
        y2 is not, the first such y1 and the lowest such x."""
        for j, k, i in _escapes(self.ycols, ry, ry):
            return self.xs[i], self.ys[k], self.ys[j]

    def c3(self, m):
        """The first base element whose images are not related."""
        if self.lanes.pivot_bits & ~m:
            ny, images = len(self.ys), zip(self.ps, self.exi, self.eyi)
            return _first("C3", m, (p for p, i, j in images if not m >> i * ny + j & 1))

    def c4(self, m):
        """(x, p, y): the first p whose pivot adds pairs, the lowest added."""
        lanes = self.lanes
        for p, (j, shift) in zip(self.ps, lanes.pivots):
            gain = (m >> j & lanes.ones) * (m >> shift & lanes.full) & ~m
            if gain:
                i, j = divmod(_low_index(gain), len(self.ys))
                return self.xs[i], p, self.ys[j]

    def c5(self, m, ry):
        """(x1, p, x2): the first p, the lowest x1 related to ey(p) and not
        below ex(p), and the lowest x2 above ex(p) and not above x1."""
        if m & self.lanes.beside_column:
            xs, xrows, images = self.xs, self.xrows, zip(self.ps, self.exi, self.eyi)
            return _first("C5", m, (
                (xs[k], p, xs[_low_index(xrows[i] & ~xrows[k])])
                for p, i, j in images if ry[j] & ~self.xcols[i]
                for k in (_low_index(ry[j] & ~self.xcols[i]),)
            ))

    def c6(self, m, rx):
        """(p, y1, y2): C5's reading on the other side."""
        if m & self.lanes.beside_lane:
            ys, ycols, images = self.ys, self.ycols, zip(self.ps, self.exi, self.eyi)
            return _first("C6", m, (
                (p, ys[_low_index(ycols[j] & ~ycols[k])], ys[k])
                for p, i, j in images if rx[i] & ~self.yrows[j]
                for k in (_low_index(rx[i] & ~self.yrows[j]),)
            ))

    def c7(self, m, rx):
        """(x, y1, y2): the first y1, the first x realizable at it (on its
        lane of `meets`) related to a y2 not above y1, the lowest such y2."""
        if m & self.forbidden_c7:
            ones, meets, ny = self.lanes.ones, self.meets, len(self.ys)
            columns = (meets >> j & ones for j in range(ny))
            j, i, k = _first("C7", m, _escapes(columns, rx, self.yrows, ny))
            return self.xs[i], self.ys[j], self.ys[k]

    def c8(self, m, ry):
        """(x1, x2, y): the first x2, the first y realizable at it that an
        x1 not below x2 is related to, the lowest such x1."""
        if m & self.forbidden_c8:
            full, joins, ny = self.lanes.full, self.joins, len(self.ys)
            rows = (joins >> i * ny & full for i in range(len(self.xs)))
            i, j, k = _first("C8", m, _escapes(rows, ry, self.xcols))
            return self.xs[k], self.xs[i], self.ys[j]

    def slices(self, m, rx, ry):
        """S1's and S2's first base element p: the down-set of ex(p) is not
        what ey(p) is related to, resp. the up-set of ey(p) not what ex(p) is."""
        lanes, images, s1, s2 = self.lanes, list(zip(self.ps, self.exi, self.eyi)), None, None
        if m & (lanes.below | lanes.beside_column) != lanes.below:
            s1 = _first("S1", m, (p for p, i, j in images if self.xcols[i] != ry[j]))
        if m & (lanes.above | lanes.beside_lane) != lanes.above:
            s2 = _first("S2", m, (p for p, i, j in images if self.yrows[j] != rx[i]))
        return s1, s2

    def report(self, m, rows=None):
        """Every condition with its witness and the grade (`mask_grade`) of
        the pair mask `m` with bit-rows `rows`: the conditions of the grades
        that level passes hold, and each one above it is read on m."""
        level, galois = self.mask_grade(m)
        rx, ry = self.rows(m) if rows is None else rows
        grade = -1 if level is None else level
        w = dict.fromkeys(CONDITION_NAMES)
        if grade < 0:
            w["C1"], w["C2"] = self.c1(rx), self.c2(ry)
        if grade < 1:
            w["C3"], w["C4"] = self.c3(m), self.c4(m)
        if grade < 2:
            w["C5"], w["C6"] = self.c5(m, ry), self.c6(m, rx)
        if grade < 3:
            w["C7"], w["C8"] = self.c7(m, rx), self.c8(m, ry)
        failing = CONDITION_NAMES[2 * grade + 2 : 2 * grade + 4]
        if failing and all(w[name] is None for name in failing):
            raise LawViolation("packed-grade", "no condition explains the grade", (level, rx))
        e2 = _unseparated(ry, self.ycols, self.ys)
        w["E1"], w["E2"] = _unseparated(rx, self.xrows, self.xs), e2 and e2[::-1]
        w["S1"], w["S2"] = self.slices(m, rx, ry)
        conditions = {name: (witness is None, witness) for name, witness in w.items()}
        entangled, s1, s2 = w["E1"] is None and e2 is None, w["S1"] is None, w["S2"] is None
        return CoherenceReport(
            conditions, level, entangled, self.meet_side, self.join_side, galois, s1, s2
        )


def _or(masks):
    return functools.reduce(operator.or_, masks, 0)


def _realizable(lanes, covers, bounds, fences):
    """The pairs where an element is the meet (join) of the images covering
    them: per e of its side, those past e or covered by an image e does not
    bound (`fences[e]`, `bounds[e]`)."""
    out, base = lanes.ones * lanes.full, (1 << len(covers)) - 1
    for fence, bounded in zip(fences, bounds):
        rest = base & ~bounded
        while rest:
            low = rest & -rest
            fence |= covers[low.bit_length() - 1]
            rest ^= low
        out &= fence
    return out


def _escapes(candidates, rel, fences, step=1):
    """(h, c, o) per head h, candidate c of `candidates[h]` (bit c·`step`)
    and lowest o of `rel[c]` outside `fences[h]`, in that order: the first
    is a failed condition's witness in quantifier order."""
    for h, (cands, fence) in enumerate(zip(candidates, fences)):
        for c in _mask_iter(cands):
            escaped = rel[c // step] & ~fence
            if escaped:
                yield h, c // step, _low_index(escaped)


def _first(name, m, witnesses):
    """The first witness a failed test on mask `m` promises; none raises `LawViolation`."""
    for w in witnesses:
        return w
    raise LawViolation("packed-grade", "no witness explains the failed %s test" % name, (name, m))


def _unseparated(rows, ups, names):
    """E1 on a side: the first (a, b), a not below b (`ups`), rows[b] in rows[a]."""
    for i1, (row, up) in enumerate(zip(rows, ups)):
        outside = ~row
        for i2, other in enumerate(rows):
            if not other & outside and i1 != i2 and not up >> i2 & 1:
                return names[i1], names[i2]
    return None


class CoherenceReport(
    namedtuple("CoherenceReport", "conditions level entangled meet_side join_side galois s1 s2")
):
    """Per-condition verdicts and the derived grade of one polarity."""

    __slots__ = ()

    def ok(self, name):
        return self.conditions[name][0]

    def witness(self, name):
        return self.conditions[name][1]


def check_coherence(pol):
    return pol._frame.report(pol._mask, pol._rows)


def coherence_level(pol):
    return pol._frame.mask_level(pol._mask)


def is_galois(pol):
    return pol._frame.mask_grade(pol._mask)[1]


def galois_via_S1S2(pol):
    """The short route: under 0-coherence with a meet-extension on the
    left and a join-extension on the right, the polarity is Galois
    exactly when both one-step slice conditions hold.  Agreement with
    the graded definition is certified: a disagreement raises
    `LawViolation`."""
    report = check_coherence(pol)
    if report.level is None:
        raise NotCoherent("polarity is not 0-coherent", report.witness("C1"))
    if not report.meet_side:
        raise PreservationViolation("left side is not a meet-extension")
    if not report.join_side:
        raise PreservationViolation("right side is not a join-extension")
    fast = report.s1 and report.s2
    if fast != report.galois:
        raise LawViolation(
            "slice-route", "slice conditions disagree with the graded route", report
        )
    return fast


# -- canonical relations ---------------------------------------------------


def r_zero(pol):
    """The union of the two side orders with the relation itself.  Not
    transitively closed: whether it already is a preorder is the point."""
    fr = pol._frame
    return fr.relation(fr.sides | pol._packed_across)


def r_hat_m(pol):
    """The one-step saturation of `r_zero` through the base images, kept
    on the polarity, so asking again neither rebuilds nor re-certifies
    it."""
    return pol._saturation


def r_hat_g(pol):
    """`r_zero` together with all pairs forced by meets and joins of
    image sets."""
    fr = pol._frame
    (_, p4, _), (_, p5, _) = fr.back_clauses
    return fr.relation(fr.sides | pol._packed_across | p4 | p5)


def r_l(ex, ey):
    """The slice relation of two extensions of one base, as pairs (see
    `_Frame.slice_mask`)."""
    if ey.base != ex.base:
        raise CarrierMismatch("extensions must share a base poset")
    fr = _Frame(ex.base, ex, ey)
    return fr.pairs(fr.slice_mask())


# -- graded preorders ------------------------------------------------------


class NPreorderVerdict(namedtuple("NPreorderVerdict", "ok clause witness", defaults=(None, None))):
    """An n-preorder verdict: true when `ok`, as a tuple alone never is."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def is_n_preorder(pol, rel, n):
    """Decide whether `rel` is an n-preorder for the polarity.

    Grades: 0 needs a preorder matching the relation across and both
    side orders along; 1 adds commutation of the two base images; 2 adds
    order reflection on both sides; 3 adds preservation of image meets
    and joins.  The verdict is a few operations on `rel.packed`: reflexive
    and transitive (`is_preorder`), then each clause of `_clauses` in
    turn.  A failure names its clause and its first witness in carrier
    order: the first element off the diagonal, the first transitivity
    witness, or the lowest pair the clause misses or holds against it,
    untagged; commutation's is the first base element whose images miss
    a pair.
    """
    _check_grade(n)
    fr = pol._frame
    if rel.carrier is not fr.carrier and rel.carrier != fr.carrier:
        raise CarrierMismatch("relation carrier does not match the polarity")
    if not rel.is_preorder():
        if rel.is_reflexive():
            return NPreorderVerdict(False, "transitive", rel.transitivity_witness())
        i = next(i for i, row in enumerate(rel.rows) if not row >> i & 1)
        return NPreorderVerdict(False, "reflexive", rel.carrier[i])
    m = rel.packed
    missing = ~m
    for clause, forced, forbidden in _clauses(pol, n):
        bad = forced & missing | m & forbidden
        if bad:
            if clause == "commutation":
                p = next(p for p, pairs in zip(fr.ps, fr.image_pairs) if bad & pairs)
                return NPreorderVerdict(False, clause, p)
            i, j = divmod(_low_index(bad), len(fr.carrier))
            names = fr.xs + fr.ys
            return NPreorderVerdict(False, clause, (names[i], names[j]))
    return NPreorderVerdict(True)


def _clauses(pol, n):
    """The clauses of an n-preorder past the preorder laws, in the order
    they are decided: P1 forces the relation across and forbids the other
    pairs across (`ExtensionPolarity._p1`); grade n < 3 holds
    `_Frame.clauses[n]`, and grade 3 those of grade 2 and P4 and P5
    (`_Frame.back_clauses`).  Each part is built once and kept."""
    fr = pol._frame
    return (pol._p1,) + (fr.clauses[n] if n < 3 else fr.clauses[2] + fr.back_clauses)


def _grade_masks(pol, n):
    """The packed pairs every n-preorder holds and those none holds: the
    OR of its clauses (`_clauses`)."""
    forced = forbidden = 0
    for _, f, b in _clauses(pol, n):
        forced |= f
        forbidden |= b
    return forced, forbidden


def _check_grade(n):
    if isinstance(n, bool) or not isinstance(n, int) or not 0 <= n <= 3:
        raise ValueError("grade must be an int from 0 to 3, got %r" % (n,))


class EnumerationResult:
    """The n-preorders found, iterated and counted like them, and whether
    a cap cut the walk short (`truncated`)."""

    __slots__ = ("preorders", "truncated")

    def __init__(self, preorders, truncated):
        self.preorders, self.truncated = preorders, truncated

    def __iter__(self):
        return iter(self.preorders)

    def __len__(self):
        return len(self.preorders)

    def __eq__(self, other):
        if not isinstance(other, EnumerationResult):
            return NotImplemented
        return self.preorders == other.preorders and self.truncated == other.truncated

    def __repr__(self):
        return "EnumerationResult(preorders=%r, truncated=%r)" % (self.preorders, self.truncated)


def enumerate_n_preorders(pol, n, cap=None, max_carrier=None):
    """All n-preorders for the polarity, exhaustively.

    The n-preorders are the transitive relations that hold the pairs
    every n-preorder holds and none of the pairs no n-preorder may hold,
    so `order._closed_relations` walks them on those two blocks, each
    result a polynomial number of steps on packed n²-bit integers after
    the last.  `cap` bounds the number of results, with a truncation flag
    when the search was cut short; an uncapped walk has its carrier size
    gated at `max_carrier` elements, `DEFAULT_MAX_CARRIER` if None.
    """
    _check_grade(n)
    if cap is not None and cap < 0:
        raise ValueError("cap must not be negative, got %r" % (cap,))
    fr = pol._frame
    carrier = fr.carrier
    gate = carrier_gate(max_carrier)
    if cap is None and len(carrier) > gate:
        raise CarrierTooLarge(
            "carrier has %d elements, gate is %d" % (len(carrier), gate)
        )
    walk = _closed_relations(*_grade_masks(pol, n), len(carrier))
    found = list(islice(walk, None if cap is None else cap + 1))
    truncated = cap is not None and len(found) > cap
    return EnumerationResult(
        tuple(UnionPreorder._of_packed(carrier, fr.index, m, True) for m in found[:cap]),
        truncated,
    )


CANONICAL_BUILDERS = (r_zero, r_hat_m, r_hat_m, r_hat_g)


# -- the unique grade-3 preorder of a Galois polarity ----------------------


def unique_3preorder(pol):
    """The single grade-3 preorder a Galois polarity admits: the one
    `structure_of` certifies and quotients."""
    return structure_of(pol).quotient.source


def _differing_pair(r, s):
    """The first pair on which two relations over one carrier differ."""
    if r.packed != s.packed:
        i, j = divmod(_low_index(r.packed ^ s.packed), len(r.carrier))
        return r.carrier[i], r.carrier[j]
    return None


def _rigidity_failures(pol, u):
    """The absent pairs of a grade-3 preorder `u` for the polarity whose
    closure into `u` is still a grade-3 preorder, in carrier order.

    Closing (i, j) in adds exactly the pairs from below i to above j.
    The other grade-3 clauses ask for pairs `u` holds already, so the
    closure keeps the grade iff it adds none of the pairs grade 3 rules
    out (`_grade_masks`, `_loose_pairs`).
    """
    n = len(u.carrier)
    loose = _loose_pairs(u.packed, _grade_masks(pol, 3)[1], n)
    return [(u.carrier[p // n], u.carrier[p % n]) for p in _mask_iter(loose)]


@kept
def structure_of(pol):
    """The intermediate quotient of a Galois polarity with its maps, built
    from its unique grade-3 preorder.

    Certifies, beyond that preorder being a grade-3 preorder: agreement
    with the pointwise characterisation through the base, maximality by
    rigidity (closing in any one absent pair breaks the grade), the base
    embedding onto the common image of the sides, the side embeddings
    preserving all existing meets respectively joins, and each side
    generating the quotient by joins respectively meets.  A failed
    certificate raises `LawViolation` with its witness.

    The result is kept (`order.kept`) while the polarity lives; it holds
    the polarity's sides and base, not the polarity.  Errors are not kept.
    """
    if not is_galois(pol):
        raise NotGalois("the unique grade-3 preorder needs a Galois polarity")
    u = r_hat_g(pol)
    verdict = is_n_preorder(pol, u, 3)
    if not verdict.ok:
        raise LawViolation(
            "grade-3",
            "canonical relation must be a grade-3 preorder (%s fails)" % verdict.clause,
            (verdict.clause, verdict.witness),
        )
    fr = pol._frame
    alt = fr.relation(fr.pack(fr.xrows, fr.yrows, pol._rows[0], fr.z_yx_alt()))
    diff = _differing_pair(alt, u)
    if diff is not None:
        raise LawViolation("pointwise", "pointwise characterisation must agree", diff)
    loose = _rigidity_failures(pol, u)
    if loose:
        raise LawViolation("rigidity", "a second grade-3 preorder exists", loose[0])
    inter = intermediate_structure(pol, u)
    _certify_base_image(pol, inter)
    q = inter.quotient.poset
    for law, side, iota, join in (
        ("meet-preservation", pol.x, inter.iota_x, False),
        ("join-preservation", pol.y, inter.iota_y, True),
    ):
        lost = _bounds_failure(iota, join=join)
        if lost is not None:
            raise LawViolation(law, "a side embedding loses a bound", side.elements_of(lost))
    full = (1 << len(q)) - 1
    for law, iota, join in (
        ("join-generation", inter.iota_x, True),
        ("meet-generation", inter.iota_y, False),
    ):
        missed = full & ~_expressible(q, _image_mask(iota.idx), join)
        if missed:
            raise LawViolation(law, "a side must generate the quotient", q.elements_of(missed))
    return inter


def _certify_base_image(pol, inter):
    """The base embeds in the quotient of a Galois polarity, into the
    common image of the two sides, and onto it when every related pair
    has a slice witness."""
    gamma, q = inter.gamma, inter.quotient.poset
    bad = _reflection_failure(gamma)
    if bad is not None:
        raise LawViolation("base-embedding", "base must embed in the quotient", bad)
    image = _image_mask(gamma.idx)
    both = _image_mask(inter.iota_x.idx) & _image_mask(inter.iota_y.idx)
    if image & ~both:
        stray = set(q.elements_of(image & ~both))
        raise LawViolation("base-image", "base image must land in both sides", stray)
    # Equality needs every related pair (a, b) to have a slice witness, a
    # base p with a <= ex(p) and ey(p) <= b, that is to lie in the slice
    # relation; a pair like (top, top) related without one merges two
    # non-image elements.
    if both & ~image and not pol._mask & ~pol._frame.slice_pairs:
        raise LawViolation(
            "base-image",
            "base image must be the intersection of the side images",
            set(q.elements_of(both & ~image)),
        )


# The quotient of a graded preorder with the three maps into it.
IntermediateStructure = namedtuple("IntermediateStructure", "quotient iota_x iota_y gamma")


def intermediate_structure(pol, rel):
    """The quotient of a grade-1 preorder with the maps of the two sides
    and the base into it, each reading the class of a carrier index off
    the quotient.  The relation is graded first (`NotOnePreorder`
    otherwise); a relation `structure_of` has certified at grade 3 is
    known closed, so grading it again costs only the clause tests."""
    verdict = is_n_preorder(pol, rel, 1)
    if not verdict.ok:
        raise NotOnePreorder(
            "relation is not a grade-1 preorder (%s)" % verdict.clause,
            verdict.witness,
        )
    quotient = rel.quotient()
    q, of, nx = quotient.poset, quotient.of, len(pol.x)
    return IntermediateStructure(
        quotient=quotient,
        iota_x=MonotoneMap._of_idx(pol.x, q, of[:nx]),
        iota_y=MonotoneMap._of_idx(pol.y, q, of[nx:]),
        gamma=MonotoneMap._of_idx(pol.base, q, [of[i] for i in pol.ex.map.idx]),
    )
