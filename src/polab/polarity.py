"""Polarities between posets and their coherence hierarchy.

An order polarity is a pair of posets with a relation between them; an
extension polarity additionally embeds a common base poset into both
sides.  This module grades polarities by the coherence conditions they
satisfy, builds the canonical candidate preorders on the tagged union
of the two sides, and enumerates all preorders of a given grade.

The two subset-quantified conditions (and the subset-quantified parts
of the canonical relations) are evaluated through canonical witness
sets rather than a scan over all subsets of the base: a target element
is a meet of images over some admissible subset exactly when it is the
meet over the largest admissible subset of images above it.  The naive
scans live in `polab.oracles` and the two routes are compared in tests.

A polarity keeps its relation once, as a pair mask (`_Frame.mask`), and
its grade is decided on it, and only there (`_Frame.mask_level`): C1, C2
and C4 by products on `order._PairLanes`, C3 and C5 to C8 by one AND
each.  `report` takes the conditions of every grade that level passes
as holding; the loop kernels of `_CONDITIONS` read the mask's bit-rows
for the conditions above it and name their witnesses, and a first
failing grade that no kernel fails raises `LawViolation`.  Their
right-hand conditions (C2, C6, C8, E2, S2 and the sets built from joins
of images) are the left-hand code run on the dual polarity: both orders
reversed, the sides swapped, the relation transposed.

A relation on the tagged union of the sides is graded on its packed
matrix: an n-preorder is a preorder whose block across is the relation
and that holds the pairs `order._forced` names for grade n and none of
those `order._forbidden` names; the clause walk runs only to name a
failure's witness.
"""

from __future__ import annotations

import functools
import operator
import os
from dataclasses import dataclass
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
    _block_across,
    _bounds_failure,
    _closed_relations,
    _expressible,
    _forbidden,
    _forced,
    _loose_pairs,
    _low_index,
    _mask_iter,
    _pack_blocks,
    _preimages,
    _reflection_failure,
    _transpose,
    _union_of,
    cached_property,
    is_join_extension,
    is_meet_extension,
    tag_x,
    tag_y,
)

DEFAULT_MAX_CARRIER = 7
MAX_CARRIER_ENV = "POLAB_MAX_CARRIER"

CONDITION_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")


def carrier_gate(max_carrier=None):
    name, value = "max_carrier", max_carrier
    if value is None:
        name, value = MAX_CARRIER_ENV, os.environ.get(MAX_CARRIER_ENV)
        if not value:
            return DEFAULT_MAX_CARRIER
        value = int(value) if value.isdecimal() else value
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError("%s must be a non-negative integer, got %r" % (name, value))
    return value


class ExtensionPolarity:
    """An order polarity whose sides both extend a common base poset.

    Its condition frame, the pair mask of its relation with its bit-rows
    and the one-step saturation of `r_hat_m` are built on first use and
    kept; they take no part in equality."""

    def __init__(self, base, ex, ey, rel):
        if ex.base != base or ey.base != base:
            raise CarrierMismatch("both extensions must share the base poset")
        self.base = base
        self.ex = ex
        self.ey = ey
        self.rel = frozenset(rel)
        left, right = ex.target.index, ey.target.index
        for a, b in self.rel:
            if a not in left:
                raise UnknownId("relation uses unknown left element %r" % (a,))
            if b not in right:
                raise UnknownId("relation uses unknown right element %r" % (b,))

    @property
    def x(self):
        return self.ex.target

    @property
    def y(self):
        return self.ey.target

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionPolarity)
            and self.base == other.base
            and self.ex == other.ex
            and self.ey == other.ey
            and self.rel == other.rel
        )

    def __hash__(self):
        return hash((self.base, self.ex, self.ey, self.rel))

    def with_relation(self, rel):
        out = ExtensionPolarity(self.base, self.ex, self.ey, rel)
        out._frame = self._frame
        return out

    def carrier(self):
        return self._frame.carrier

    @cached_property
    def _frame(self):
        return _Frame(self.base, self.ex, self.ey)

    @cached_property
    def _mask(self):
        return self._frame.mask(self.rel)

    @cached_property
    def _rows(self):
        return tuple(map(tuple, self._frame.rows(self._mask)))

    @cached_property
    def _packed_across(self):
        """Its pairs, packed over the carrier."""
        nx, ny = len(self.x), len(self.y)
        return _pack_blocks(nx, [0] * nx, [0] * ny, self._rows[0], [0] * ny)

    @cached_property
    def _saturation(self):
        """`r_hat_m`, certified once: the saturation of a 1-coherent
        polarity must be a 1-preorder."""
        fr, rows = self._frame, self._rows
        out = fr.blocks(fr.z_x(*rows), fr.z_y(*rows), rows[0], fr.z_yx(*rows))
        if fr.mask_level(self._mask, 1) == 1:
            verdict = is_n_preorder(self, out, 1)
            if not verdict.ok:
                raise LawViolation(
                    "grade-1",
                    "saturation of a 1-coherent polarity must be a 1-preorder",
                    (verdict.clause, verdict.witness),
                )
        return out


# Each condition with the left-hand kernel that decides it.  A right-hand
# condition runs its kernel on the flipped frame and gives the order in
# which it reads that witness (None: as it is); the order of the table is
# the order of a report.
_CONDITIONS = {
    "C1": ("c1",),
    "C2": ("c1", (2, 1, 0)),
    "C3": ("c3",),
    "C4": ("c4",),
    "C5": ("c5",),
    "C6": ("c5", (1, 2, 0)),
    "C7": ("c7",),
    "C8": ("c7", (2, 1, 0)),
    "E1": ("e1",),
    "E2": ("e1", (1, 0)),
    "S1": ("s1",),
    "S2": ("s1", None),
}


class _Frame:
    """Index-level workspace for the condition checks over one base and
    pair of side extensions, independent of the relation.

    Grades are decided on pair masks (`mask`, `mask_level`).  The loop
    kernels decide the conditions above that grade and name witnesses on
    a mask's bit-rows `rx, ry` (`rows`): bit j of `rx[i]` and bit i of
    `ry[j]` are set when x_i is related to y_j.
    Only the left-hand member of each dual pair of conditions is written
    out; `check` runs the right-hand one on `flipped`, the rows swapped.

    The canonical relations are assembled (`blocks`) from four blocks of
    masks: one mask over X per left element for the left block, one mask
    over X per right element for the right-to-left block, and so on.
    What depends on the frame alone is built on first use and kept.
    """

    # The arrays are slots and only the kept values go to `__dict__`: on
    # Python 3.11, once a kept value is written to the instance dict,
    # loading an attribute kept there takes the slower dict path.
    __slots__ = (
        "xs", "ys", "ps", "xindex", "yindex", "xrows", "xcols", "yrows",
        "ycols", "prows", "pcols", "exi", "eyi", "ex", "ey", "carrier", "__dict__",
    )

    def __init__(self, base, ex, ey):
        X, Y, P = ex.target, ey.target, base
        self.ex, self.ey = ex, ey
        self.xs, self.ys, self.ps = X.elements, Y.elements, P.elements
        self.xindex, self.yindex = X.index, Y.index
        self.xrows, self.xcols = X.rows, X.cols
        self.yrows, self.ycols = Y.rows, Y.cols
        self.prows, self.pcols = P.rows, P.cols
        self.exi = [X.index[ex(p)] for p in P.elements]
        self.eyi = [Y.index[ey(p)] for p in P.elements]
        self.carrier = tuple(map(tag_x, self.xs)) + tuple(map(tag_y, self.ys))

    def mask(self, pairs):
        """The pair mask of a relation given as pairs, the pair (x_i, y_j)
        at bit i·|Y| + j."""
        ny, xindex, yindex, m = len(self.ys), self.xindex, self.yindex, 0
        for a, b in pairs:
            m |= 1 << xindex[a] * ny + yindex[b]
        return m

    def pairs(self, m):
        """The pairs of the pair mask `m`."""
        ny = len(self.ys)
        return frozenset((self.xs[p // ny], self.ys[p % ny]) for p in _mask_iter(m))

    def rows(self, m):
        """The bit-rows `(rx, ry)` of the pair mask `m`, read without the
        lanes, which a relation that is never graded does not need."""
        ny = len(self.ys)
        rx = [m >> i * ny & (1 << ny) - 1 for i in range(len(self.xs))]
        return rx, _transpose(rx, ny)

    @cached_property
    def flipped(self):
        """The frame of the dual: both orders reversed, the sides and base
        maps swapped.  A view on the same arrays; a relation is carried
        over by swapping `rx` and `ry`.  It keeps no link back: the cycle
        would leave every frame to the cyclic garbage collector.  It has no
        extensions, so its side tests are not asked."""
        f = _Frame.__new__(_Frame)
        f.xs, f.ys, f.ps = self.ys, self.xs, self.ps
        f.xindex, f.yindex = self.yindex, self.xindex
        f.prows, f.pcols = self.pcols, self.prows
        f.xrows, f.xcols = self.ycols, self.yrows
        f.yrows, f.ycols = self.xcols, self.xrows
        f.exi, f.eyi = self.eyi, self.exi
        return f

    @cached_property
    def index(self):
        """The index of the carrier, shared by every relation the frame
        assembles."""
        return {e: i for i, e in enumerate(self.carrier)}

    @cached_property
    def meet_side(self):
        return is_meet_extension(self.ex)

    @cached_property
    def join_side(self):
        return is_join_extension(self.ey)

    def check(self, name, rx, ry):
        """The verdict and witness of the named condition (`_CONDITIONS`)."""
        kernel, *flip = _CONDITIONS[name]
        if not flip:
            return getattr(self, kernel)(rx, ry)
        ok, w = getattr(self.flipped, kernel)(ry, rx)
        order = flip[0]
        return ok, w if ok or order is None else tuple(w[i] for i in order)

    # -- plain conditions -------------------------------------------------

    def c1(self, rx, ry):
        for i1, up in enumerate(self.xrows):
            for i2 in _mask_iter(up):
                missing = rx[i2] & ~rx[i1]
                if missing:
                    return False, (self.xs[i1], self.xs[i2], self.ys[_low_index(missing)])
        return True, None

    def c3(self, rx, ry):
        for k, (i, j) in enumerate(zip(self.exi, self.eyi)):
            if not rx[i] >> j & 1:
                return False, self.ps[k]
        return True, None

    def c4(self, rx, ry):
        for k, (xi, yi) in enumerate(zip(self.exi, self.eyi)):
            for i in _mask_iter(ry[yi]):
                missing = rx[xi] & ~rx[i]
                if missing:
                    return False, (self.xs[i], self.ps[k], self.ys[_low_index(missing)])
        return True, None

    def c5(self, rx, ry):
        for k, (xi, yi) in enumerate(zip(self.exi, self.eyi)):
            stray = ry[yi] & ~self.xcols[xi]
            if stray:
                i1 = _low_index(stray)
                i2 = _low_index(self.xrows[xi] & ~self.xrows[i1])
                return False, (self.xs[i1], self.ps[k], self.xs[i2])
        return True, None

    # -- canonical witness sets for the subset-quantified conditions ------

    @cached_property
    def realizable_meets(self):
        """Per right element, the left elements expressible as the meet
        of images of base elements whose right image lies above it."""
        left = [1 << xi for xi in self.exi]
        return [
            _expressible(self.xrows, self.xcols, _union_of(left, m))
            for m in _preimages(self.eyi, self.ycols)
        ]

    def c7(self, rx, ry):
        for j1, up in enumerate(self.yrows):
            for i in _mask_iter(self.realizable_meets[j1]):
                missing = rx[i] & ~up
                if missing:
                    return False, (self.xs[i], self.ys[j1], self.ys[_low_index(missing)])
        return True, None

    # -- blocks of the canonical relations ---------------------------------

    @cached_property
    def z_s(self):
        """Right-to-left block of the pairs (y, x) forced below-left by a
        meet of images: x lies above a meet realizable at y."""
        return [_union_of(self.xrows, m) for m in self.realizable_meets]

    @cached_property
    def z_t(self):
        return _transpose(self.flipped.z_s, len(self.ys))

    def z_x(self, rx, ry):
        """Left block of the one-step saturation: x1 below x2, or x1
        related to the right image and x2 above the left image of one
        base element."""
        out = list(self.xrows)
        for xi, yi in zip(self.exi, self.eyi):
            for i1 in _mask_iter(ry[yi]):
                out[i1] |= self.xrows[xi]
        return out

    def z_y(self, rx, ry):
        return _transpose(self.flipped.z_x(ry, rx), len(self.ys))

    def z_yx(self, rx, ry):
        """Right-to-left block of the one-step saturation: y below the
        right image of k1 and x above the left image of k2, with the left
        image of k1 related to the right image of k2."""
        out = [0] * len(self.ys)
        for x1, y1 in zip(self.exi, self.eyi):
            above = 0
            for x2, y2 in zip(self.exi, self.eyi):
                if rx[x1] >> y2 & 1:
                    above |= self.xrows[x2]
            if above:
                for j in _mask_iter(self.ycols[y1]):
                    out[j] |= above
        return out

    def z_yx_alt(self):
        """Right-to-left block of the pairs (y, x) such that every base
        element sent below y on the right is below every base element sent
        above x on the left."""
        above = _transpose([self.xcols[xi] for xi in self.exi], len(self.xs))
        out = []
        for down in self.ycols:
            common = (1 << len(self.ps)) - 1
            for k, yi in enumerate(self.eyi):
                if down >> yi & 1:
                    common &= self.prows[k]
            out.append(sum(1 << i for i, a in enumerate(above) if not a & ~common))
        return out

    def slice_mask(self):
        """The pair mask of the slice relation: x related to y when some base
        element has its left image above x and its right image below y.  It
        reaches grade 2; a failure raises `NotCoherent` naming the first
        failing condition of its `report`."""
        lanes, m = self.lanes, 0
        for xi, yi in zip(self.exi, self.eyi):
            m |= lanes.spreads[xi] * self.yrows[yi]
        if self.mask_level(m, 2) != 2:
            conditions = self.report(m).conditions
            name = next(name for name in CONDITION_NAMES if not conditions[name][0])
            raise NotCoherent("slice relation fails %s" % name, conditions[name][1])
        return m

    def blocks(self, xx, yy, xy, yx):
        """The relation on the carrier whose left, right, left-to-right
        and right-to-left blocks are the given masks."""
        m = _pack_blocks(len(self.xs), xx, yy, xy, yx)
        return UnionPreorder._of_packed(self.carrier, self.index, m, False)

    def e1(self, rx, ry):
        for i1, up in enumerate(self.xrows):
            for i2 in range(len(self.xs)):
                if i1 == i2 or up >> i2 & 1:
                    continue
                if not rx[i2] & ~rx[i1]:
                    return False, (self.xs[i1], self.xs[i2])
        return True, None

    def s1(self, rx, ry):
        for k, (xi, yi) in enumerate(zip(self.exi, self.eyi)):
            if self.xcols[xi] != ry[yi]:
                return False, self.ps[k]
        return True, None

    @cached_property
    def _graded(self):
        return {}

    def graded(self, n):
        """`_forced` and `_forbidden` at grade n, kept per grade, so that a
        frame graded only below grade 3 builds no meet blocks."""
        kept = self._graded
        if n not in kept:
            kept[n] = _forced(self, n), _forbidden(self, n)
        return kept[n]

    # -- grading on the pair mask -----------------------------------------

    @cached_property
    def lanes(self):
        """The pair masks of the frame, the base image pairs as pivots."""
        return _PairLanes(self.xcols, self.yrows, zip(self.exi, self.eyi))

    @cached_property
    def forbidden_c7(self):
        """C7's pairs: (x, y) with x a meet realizable at y1, y not above y1."""
        lanes, out = self.lanes, 0
        for meets, up in zip(self.realizable_meets, self.yrows):
            out |= lanes.spread(meets) * (lanes.full ^ up)
        return out

    @cached_property
    def forbidden_c8(self):
        """C8's pairs, kept apart so that a grade failing C7 builds no flipped meets."""
        lanes, out = self.lanes, 0
        for joins, down in zip(self.flipped.realizable_meets, lanes.spreads):
            out |= (lanes.ones ^ down) * joins
        return out

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

    def report(self, m, rows=None):
        """Every condition with its witness, and the grade of the pair mask
        `m` (`mask_grade`), whose bit-rows `rows` a polarity passes as it
        keeps them.  The conditions of the grades that level passes hold;
        only those above it run their loop kernels.  A first failing grade
        that no kernel fails is a disagreement of the two routes."""
        level, galois = self.mask_grade(m)
        if rows is None:
            rows = self.rows(m)
        passed = CONDITION_NAMES[: 0 if level is None else 2 * level + 2]
        conditions = {
            name: (True, None) if name in passed else self.check(name, *rows)
            for name in _CONDITIONS
        }
        failing = CONDITION_NAMES[len(passed) : len(passed) + 2]
        if failing and all(conditions[name][0] for name in failing):
            raise LawViolation("packed-grade", "no loop kernel explains the grade", (level, rows[0]))
        return CoherenceReport(
            conditions=conditions,
            level=level,
            entangled=conditions["E1"][0] and conditions["E2"][0],
            meet_side=self.meet_side,
            join_side=self.join_side,
            galois=galois,
            s1=conditions["S1"][0],
            s2=conditions["S2"][0],
        )


@dataclass
class CoherenceReport:
    """Per-condition verdicts and the derived grade of one polarity."""

    conditions: dict
    level: object
    entangled: bool
    meet_side: bool
    join_side: bool
    galois: bool
    s1: bool
    s2: bool

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
    return fr.blocks(fr.xrows, fr.yrows, pol._rows[0], [0] * len(fr.ys))


def r_hat_m(pol):
    """The one-step saturation of `r_zero` through the base images, kept
    on the polarity, so asking again neither rebuilds nor re-certifies
    it."""
    return pol._saturation


def r_hat_g(pol):
    """`r_zero` together with all pairs forced by meets and joins of
    image sets."""
    fr = pol._frame
    return fr.blocks(
        fr.xrows, fr.yrows, pol._rows[0], list(map(operator.or_, fr.z_s, fr.z_t))
    )


def r_l(ex, ey):
    """The slice relation of two extensions of one base, as pairs (see
    `_Frame.slice_mask`)."""
    if ey.base != ex.base:
        raise CarrierMismatch("extensions must share a base poset")
    fr = _Frame(ex.base, ex, ey)
    return fr.pairs(fr.slice_mask())


# -- graded preorders ------------------------------------------------------


@dataclass
class NPreorderVerdict:
    ok: bool
    clause: object = None
    witness: object = None

    def __bool__(self):
        return self.ok


def _first_pair(left, right, bad):
    """The first pair, row by row, whose bit is set in the masks `bad`,
    one per element of `left`, over the elements of `right`."""
    for i, row in enumerate(bad):
        if row:
            return left[i], right[(row & -row).bit_length() - 1]
    return None


def _clause_failures(fr, rx, rel, n):
    """Each clause of an n-preorder with its first failure in carrier
    order (None when it holds), lazily and in the order they are decided."""
    rows, carrier = rel.rows, rel.carrier
    yield "reflexive", next(
        (carrier[i] for i, row in enumerate(rows) if not row >> i & 1), None
    )
    yield "transitive", rel.transitivity_witness()
    yield from _block_failures(fr, rx, rel, n)


def _block_failures(fr, rx, rel, n):
    """The clauses of `_clause_failures` past the preorder laws, each
    comparing a block of `rel` with masks of the frame."""
    rows = rel.rows
    nx, xs, ys = len(fr.xs), fr.xs, fr.ys
    xx = [r & (1 << nx) - 1 for r in rows[:nx]]
    xy = [r >> nx for r in rows[:nx]]
    yx = [r & (1 << nx) - 1 for r in rows[nx:]]
    yy = [r >> nx for r in rows[nx:]]
    yield "P1", _first_pair(xs, ys, map(operator.xor, xy, rx))
    yield "P2", _first_pair(xs, xs, (a & ~b for a, b in zip(fr.xrows, xx)))
    yield "P3", _first_pair(ys, ys, (a & ~b for a, b in zip(fr.yrows, yy)))
    if n >= 1:
        images = zip(fr.ps, fr.exi, fr.eyi)
        bad = (p for p, i, j in images if not (xy[i] >> j & 1 and yx[j] >> i & 1))
        yield "commutation", next(bad, None)
    if n >= 2:
        yield "reflectX", _first_pair(xs, xs, (a & ~b for a, b in zip(xx, fr.xrows)))
        yield "reflectY", _first_pair(ys, ys, (a & ~b for a, b in zip(yy, fr.yrows)))
    if n >= 3:
        yield "P4", _first_pair(ys, xs, (a & ~b for a, b in zip(fr.z_s, yx)))
        yield "P5", _first_pair(ys, xs, (a & ~b for a, b in zip(fr.z_t, yx)))


def _first_failure(failures):
    """The verdict of the first clause of `failures` that fails; None
    when all hold."""
    for clause, witness in failures:
        if witness is not None:
            return NPreorderVerdict(False, clause, witness)
    return None


def is_n_preorder(pol, rel, n):
    """Decide whether `rel` is an n-preorder for the polarity.

    Grades: 0 needs a preorder matching the relation across and both
    side orders along; 1 adds commutation of the two base images; 2 adds
    order reflection on both sides; 3 adds preservation of image meets
    and joins, checked through the canonical forced blocks.  An
    n-preorder is exactly a preorder whose block across is the relation
    (P1) and that holds the pairs `_forced` and none of `_forbidden`, so
    the verdict is a few operations on the packed matrix `rel.packed`:
    reflexive and transitive (`is_preorder`), P1, then one AND with each
    of the frame's masks for the grade (`_Frame.graded`).  A failure
    names its clause and its first failing pair in carrier order: P1's
    is the lowest bit that differs across, and a failed mask test runs
    the clause walk (`_block_failures`) to name one; a failed test that
    no clause explains raises `LawViolation`.
    """
    _check_grade(n)
    fr, rx = pol._frame, pol._rows[0]
    if rel.carrier is not fr.carrier and rel.carrier != fr.carrier:
        raise CarrierMismatch("relation carrier does not match the polarity")
    if not rel.is_preorder():
        return _first_failure(_clause_failures(fr, rx, rel, n))
    nx, ny = len(fr.xs), len(fr.ys)
    m = rel.packed
    across = m & _block_across(nx, ny) ^ pol._packed_across
    if across:
        i, j = divmod(_low_index(across), nx + ny)
        return NPreorderVerdict(False, "P1", (fr.xs[i], fr.ys[j - nx]))
    forced, forbidden = fr.graded(n)
    bad = forced & ~m | m & forbidden
    if not bad:
        return NPreorderVerdict(True)
    verdict = _first_failure(_block_failures(fr, rx, rel, n))
    if verdict is None:
        i, j = divmod(_low_index(bad), nx + ny)
        raise LawViolation(
            "n-preorder",
            "no clause explains the failed mask test",
            (n, fr.carrier[i], fr.carrier[j]),
        )
    return verdict


def _grade_masks(pol, n):
    """The packed pairs every n-preorder for the polarity holds, and
    those none holds: `_forced` with the relation's pairs across, and
    `_forbidden` with the other pairs across (P1)."""
    fr, r = pol._frame, pol._packed_across
    forced, forbidden = fr.graded(n)
    return forced | r, forbidden | _block_across(len(fr.xs), len(fr.ys)) & ~r


def _check_grade(n):
    if not isinstance(n, int) or not 0 <= n <= 3:
        raise ValueError("grade must be an int from 0 to 3, got %r" % (n,))


@dataclass
class EnumerationResult:
    preorders: tuple
    truncated: bool

    def __iter__(self):
        return iter(self.preorders)

    def __len__(self):
        return len(self.preorders)


def enumerate_n_preorders(pol, n, cap=None, max_carrier=None):
    """All n-preorders for the polarity, exhaustively.

    The n-preorders are the transitive relations that hold the pairs
    every n-preorder holds and none of the pairs no n-preorder may hold,
    so `order._closed_relations` walks them on those two blocks, each
    result a polynomial number of steps on packed n²-bit integers after
    the last.  The carrier size is gated (override with `max_carrier` or
    the POLAB_MAX_CARRIER environment variable); `cap` bounds the number
    of results, with a truncation flag when the search was cut short.
    """
    _check_grade(n)
    if cap is not None and cap < 0:
        raise ValueError("cap must not be negative, got %r" % (cap,))
    fr = pol._frame
    carrier = fr.carrier
    gate = carrier_gate(max_carrier)
    if len(carrier) > gate:
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

# Distinct polarities whose certified structure is kept; one completion
# round trip touches three (the polarity, the one its completion
# generates, and a collapse target).  The object maps of `polab.delta1`
# keep as many completions and generated polarities.
STRUCTURE_CACHE_SIZE = 8


def unique_3preorder(pol):
    """The single grade-3 preorder a Galois polarity admits: the one
    `structure_of` certifies and quotients."""
    return structure_of(pol).quotient.source


def _differing_pair(r, s):
    """The first pair on which two relations over one carrier differ."""
    for i, (a, b) in enumerate(zip(r.rows, s.rows)):
        if a != b:
            j = next(_mask_iter(a ^ b))
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


@functools.lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
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

    The result is shared: it is memoised on the polarity's value for the
    last `STRUCTURE_CACHE_SIZE` polarities.  Errors are not cached.
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
    alt = fr.blocks(fr.xrows, fr.yrows, pol._rows[0], fr.z_yx_alt())
    diff = _differing_pair(alt, u)
    if diff is not None:
        raise LawViolation("pointwise", "pointwise characterisation must agree", diff)
    loose = _rigidity_failures(pol, u)
    if loose:
        raise LawViolation("rigidity", "a second grade-3 preorder exists", loose[0])
    inter = intermediate_structure(pol, u)
    _certify_base_image(pol, inter)
    q = inter.quotient.poset
    for law, side, iota, src, tgt in (
        ("meet-preservation", pol.x, inter.iota_x, pol.x.cols, q.cols),
        ("join-preservation", pol.y, inter.iota_y, pol.y.rows, q.rows),
    ):
        lost = _bounds_failure(iota.idx, src, tgt)
        if lost is not None:
            raise LawViolation(
                law, "a side embedding loses a bound", side.elements_of(lost)
            )
    full = (1 << len(q)) - 1
    for law, up, down, image in (
        ("join-generation", q.cols, q.rows, inter.iota_x.image()),
        ("meet-generation", q.rows, q.cols, inter.iota_y.image()),
    ):
        missed = full & ~_expressible(up, down, q.mask_of(image))
        if missed:
            raise LawViolation(
                law, "a side must generate the quotient", q.elements_of(missed)
            )
    return inter


def _certify_base_image(pol, inter):
    """The base embeds in the quotient of a Galois polarity, into the
    common image of the two sides, and onto it when every related pair
    has a slice witness."""
    gamma = inter.gamma
    bad = _reflection_failure(gamma)
    if bad is not None:
        raise LawViolation("base-embedding", "base must embed in the quotient", bad)
    both = set(inter.iota_x.image()) & set(inter.iota_y.image())
    stray = set(gamma.image()) - both
    if stray:
        raise LawViolation("base-image", "base image must land in both sides", stray)
    # Equality needs every related pair (a, b) to have a slice witness, a
    # base p with a <= ex(p) and ey(p) <= b; a pair like (top, top)
    # related without one merges two non-image elements.
    above = pol.ex.map.pre_up
    below = _preimages(pol.ey.map.idx, pol.y.rows)
    xi, yi = pol.x.index, pol.y.index
    witnessed = all(above[xi[a]] & below[yi[b]] for a, b in pol.rel)
    missed = both - set(gamma.image())
    if witnessed and missed:
        raise LawViolation(
            "base-image",
            "base image must be the intersection of the side images",
            missed,
        )


@dataclass(frozen=True)
class IntermediateStructure:
    """The quotient of a graded preorder with the three maps into it."""

    quotient: object
    iota_x: MonotoneMap
    iota_y: MonotoneMap
    gamma: MonotoneMap


def intermediate_structure(pol, rel):
    """The quotient of a grade-1 preorder with the maps of the two sides
    and the base into it."""
    verdict = is_n_preorder(pol, rel, 1)
    if not verdict.ok:
        raise NotOnePreorder(
            "relation is not a grade-1 preorder (%s)" % verdict.clause,
            verdict.witness,
        )
    quotient = rel.quotient()
    q = quotient.poset
    iota_x = MonotoneMap(
        pol.x, q, {a: quotient.project(tag_x(a)) for a in pol.x.elements}
    )
    iota_y = MonotoneMap(
        pol.y, q, {b: quotient.project(tag_y(b)) for b in pol.y.elements}
    )
    gamma = MonotoneMap(
        pol.base,
        q,
        {p: quotient.project(tag_x(pol.ex(p))) for p in pol.base.elements},
    )
    return IntermediateStructure(
        quotient=quotient, iota_x=iota_x, iota_y=iota_y, gamma=gamma
    )
