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

The right-hand conditions (C2, C6, C8, E2, S2 and the sets built from
joins of images) are the left-hand code run on the dual polarity: both
orders reversed, the sides swapped, the relation transposed.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

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
    X_SIDE,
    _bounds_failure,
    _expressible,
    _index_image,
    _mask_iter,
    _reflection_failure,
    tag_x,
    tag_y,
    transitive_close,
)

DEFAULT_MAX_CARRIER = 7
MAX_CARRIER_ENV = "POLAB_MAX_CARRIER"

CONDITION_NAMES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")


def carrier_gate(max_carrier=None):
    if max_carrier is not None:
        return max_carrier
    env = os.environ.get(MAX_CARRIER_ENV)
    if env:
        return int(env)
    return DEFAULT_MAX_CARRIER


class ExtensionPolarity:
    """An order polarity whose sides both extend a common base poset."""

    __slots__ = ("base", "ex", "ey", "rel")

    def __init__(self, base, ex, ey, rel):
        if ex.base != base or ey.base != base:
            raise CarrierMismatch("both extensions must share the base poset")
        self.base = base
        self.ex = ex
        self.ey = ey
        self.rel = frozenset(rel)
        for a, b in self.rel:
            if a not in self.x.index:
                raise UnknownId("relation uses unknown left element %r" % (a,))
            if b not in self.y.index:
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
        return ExtensionPolarity(self.base, self.ex, self.ey, rel)

    def carrier(self):
        return tuple(tag_x(a) for a in self.x.elements) + tuple(
            tag_y(b) for b in self.y.elements
        )


_GRADES = (("C1", "C2"), ("C3", "C4"), ("C5", "C6"), ("C7", "C8"))


def _grade(holds, upto=3):
    """The highest n <= upto such that `holds` accepts both conditions of
    every grade up to n, None when grade 0 fails.  Conditions are asked
    in grade order and none after the first rejected one."""
    level = None
    for n, pair in enumerate(_GRADES[: upto + 1]):
        if not all(holds(name) for name in pair):
            break
        level = n
    return level


def _reversed(verdict):
    ok, w = verdict
    return ok, None if w is None else w[::-1]


class _Frame:
    """Index-level workspace for the condition checks over one base and
    pair of side extensions, independent of the relation.

    Every check takes the relation as bit-rows `rx, ry`: bit j of `rx[i]`
    and bit i of `ry[j]` are set when the i-th left element is related
    to the j-th right element.  Only the left-hand member of each dual
    pair of conditions is written out; the right-hand one is the
    left-hand one run on `flipped()` with the rows swapped.
    """

    def __init__(self, base, ex, ey):
        X, Y, P = ex.target, ey.target, base
        self.xs, self.ys, self.ps = X.elements, Y.elements, P.elements
        self.xindex, self.yindex = X.index, Y.index
        self.xrows, self.xcols = X.rows, X.cols
        self.yrows, self.ycols = Y.rows, Y.cols
        self.prows, self.pcols = P.rows, P.cols
        self.exi = [X.index[ex(p)] for p in P.elements]
        self.eyi = [Y.index[ey(p)] for p in P.elements]
        self._real_meets = {}
        self._flipped = None
        self._meet_side = None

    @classmethod
    def of(cls, pol):
        return cls(pol.base, pol.ex, pol.ey)

    def rows(self, rel):
        """The bit-rows `(rx, ry)` of a relation given as pairs."""
        rx = [0] * len(self.xs)
        ry = [0] * len(self.ys)
        for a, b in rel:
            i, j = self.xindex[a], self.yindex[b]
            rx[i] |= 1 << j
            ry[j] |= 1 << i
        return rx, ry

    def flipped(self):
        """The frame of the dual: both orders reversed, the sides and base
        maps swapped.  A view on the same arrays, built once; a relation
        is carried over by swapping `rx` and `ry`."""
        if self._flipped is None:
            f = _Frame.__new__(_Frame)
            f.xs, f.ys, f.ps = self.ys, self.xs, self.ps
            f.xindex, f.yindex = self.yindex, self.xindex
            f.prows, f.pcols = self.pcols, self.prows
            f.xrows, f.xcols = self.ycols, self.yrows
            f.yrows, f.ycols = self.xcols, self.xrows
            f.exi, f.eyi = self.eyi, self.exi
            f._real_meets = {}
            f._flipped = None
            f._meet_side = None
            self._flipped = f
        return self._flipped

    @property
    def meet_side(self):
        """Whether every left element is the meet of the base images
        above it."""
        if self._meet_side is None:
            image = 0
            for xi in self.exi:
                image |= 1 << xi
            full = (1 << len(self.xs)) - 1
            self._meet_side = _expressible(self.xrows, self.xcols, image) == full
        return self._meet_side

    @property
    def join_side(self):
        return self.flipped().meet_side

    # -- plain conditions -------------------------------------------------

    def c1(self, rx, ry):
        for i1, up in enumerate(self.xrows):
            for i2 in _mask_iter(up):
                missing = rx[i2] & ~rx[i1]
                if missing:
                    j = next(_mask_iter(missing))
                    return False, (self.xs[i1], self.xs[i2], self.ys[j])
        return True, None

    def c2(self, rx, ry):
        return _reversed(self.flipped().c1(ry, rx))

    def c3(self, rx, ry):
        for k, (i, j) in enumerate(zip(self.exi, self.eyi)):
            if not rx[i] >> j & 1:
                return False, self.ps[k]
        return True, None

    def c4(self, rx, ry):
        for k, (xi, yi) in enumerate(zip(self.exi, self.eyi)):
            right = rx[xi]
            for i in _mask_iter(ry[yi]):
                missing = right & ~rx[i]
                if missing:
                    j = next(_mask_iter(missing))
                    return False, (self.xs[i], self.ps[k], self.ys[j])
        return True, None

    def c5(self, rx, ry):
        for k, (xi, yi) in enumerate(zip(self.exi, self.eyi)):
            need = self.xrows[xi]
            for i1 in _mask_iter(ry[yi]):
                missing = need & ~self.xrows[i1]
                if missing:
                    i2 = next(_mask_iter(missing))
                    return False, (self.xs[i1], self.ps[k], self.xs[i2])
        return True, None

    def c6(self, rx, ry):
        ok, w = self.flipped().c5(ry, rx)
        return ok, None if w is None else (w[1], w[2], w[0])

    # -- canonical witness sets for the subset-quantified conditions ------

    def realizable_meets(self, j):
        """Left elements expressible as the meet of images of base
        elements whose right image lies above the j-th right element."""
        if j not in self._real_meets:
            images = 0
            for xi, yi in zip(self.exi, self.eyi):
                if self.yrows[j] >> yi & 1:
                    images |= 1 << xi
            self._real_meets[j] = _expressible(self.xrows, self.xcols, images)
        return self._real_meets[j]

    def c7(self, rx, ry):
        for j1, up in enumerate(self.yrows):
            for i in _mask_iter(self.realizable_meets(j1)):
                missing = rx[i] & ~up
                if missing:
                    j2 = next(_mask_iter(missing))
                    return False, (self.xs[i], self.ys[j1], self.ys[j2])
        return True, None

    def c8(self, rx, ry):
        return _reversed(self.flipped().c7(ry, rx))

    def z_s_pairs(self):
        """Pairs (y, x) forced below-left by a meet of images."""
        out = set()
        for j, b in enumerate(self.ys):
            real = self.realizable_meets(j)
            for i, down in enumerate(self.xcols):
                if real & down:
                    out.add((b, self.xs[i]))
        return frozenset(out)

    def z_t_pairs(self):
        return frozenset((b, a) for a, b in self.flipped().z_s_pairs())

    # -- one-step saturation sets -----------------------------------------

    def z_x_pairs(self, rx, ry):
        out = set()
        for i1, up in enumerate(self.xrows):
            for i2 in _mask_iter(up):
                out.add((self.xs[i1], self.xs[i2]))
        for xi, yi in zip(self.exi, self.eyi):
            for i1 in _mask_iter(ry[yi]):
                for i2 in _mask_iter(self.xrows[xi]):
                    out.add((self.xs[i1], self.xs[i2]))
        return frozenset(out)

    def z_y_pairs(self, rx, ry):
        return frozenset((b, a) for a, b in self.flipped().z_x_pairs(ry, rx))

    def z_yx_pairs(self, rx, ry):
        out = set()
        for k1 in range(len(self.ps)):
            for k2 in range(len(self.ps)):
                if not rx[self.exi[k1]] >> self.eyi[k2] & 1:
                    continue
                for j in _mask_iter(self.ycols[self.eyi[k1]]):
                    for i in _mask_iter(self.xrows[self.exi[k2]]):
                        out.add((self.ys[j], self.xs[i]))
        return frozenset(out)

    def z_yx_alt_pairs(self):
        """Pairs (y, x) such that every base element sent below y on the
        right is below every base element sent above x on the left."""
        out = set()
        for j, down in enumerate(self.ycols):
            below = [k for k, yi in enumerate(self.eyi) if down >> yi & 1]
            for i, up in enumerate(self.xrows):
                above = [k for k, xi in enumerate(self.exi) if up >> xi & 1]
                if all(self.prows[k1] >> k2 & 1 for k1 in below for k2 in above):
                    out.add((self.ys[j], self.xs[i]))
        return frozenset(out)

    def e1(self, rx, ry):
        for i1, up in enumerate(self.xrows):
            for i2 in range(len(self.xs)):
                if i1 == i2 or up >> i2 & 1:
                    continue
                if not rx[i2] & ~rx[i1]:
                    return False, (self.xs[i1], self.xs[i2])
        return True, None

    def e2(self, rx, ry):
        return _reversed(self.flipped().e1(ry, rx))

    def s1(self, rx, ry):
        for k, (xi, yi) in enumerate(zip(self.exi, self.eyi)):
            if self.xcols[xi] != ry[yi]:
                return False, self.ps[k]
        return True, None

    def s2(self, rx, ry):
        return self.flipped().s1(ry, rx)

    # -- grading ----------------------------------------------------------

    def level(self, rx, ry, upto=3):
        """The grade of the relation capped at `upto`, None below grade
        0; no condition past the first failing one is evaluated."""
        return _grade(lambda name: getattr(self, name.lower())(rx, ry)[0], upto)

    def report(self, rx, ry):
        """Every condition with its witness, and the derived grade."""
        conditions = {
            "C1": self.c1(rx, ry),
            "C2": self.c2(rx, ry),
            "C3": self.c3(rx, ry),
            "C4": self.c4(rx, ry),
            "C5": self.c5(rx, ry),
            "C6": self.c6(rx, ry),
            "C7": self.c7(rx, ry),
            "C8": self.c8(rx, ry),
            "E1": self.e1(rx, ry),
            "E2": self.e2(rx, ry),
            "S1": self.s1(rx, ry),
            "S2": self.s2(rx, ry),
        }
        level = _grade(lambda name: conditions[name][0])
        meet_side, join_side = self.meet_side, self.join_side
        return CoherenceReport(
            conditions=conditions,
            level=level,
            entangled=conditions["E1"][0] and conditions["E2"][0],
            meet_side=meet_side,
            join_side=join_side,
            galois=level == 3 and meet_side and join_side,
            s1=conditions["S1"][0],
            s2=conditions["S2"][0],
        )


@dataclass
class NamedRelationSets:
    """The auxiliary pair-sets used by the canonical preorders."""

    z_x: frozenset
    z_y: frozenset
    z_yx: frozenset
    z_yx_alt: frozenset
    z_s: frozenset
    z_t: frozenset


def named_relation_sets(pol):
    fr = _Frame.of(pol)
    rows = fr.rows(pol.rel)
    return NamedRelationSets(
        z_x=fr.z_x_pairs(*rows),
        z_y=fr.z_y_pairs(*rows),
        z_yx=fr.z_yx_pairs(*rows),
        z_yx_alt=fr.z_yx_alt_pairs(),
        z_s=fr.z_s_pairs(),
        z_t=fr.z_t_pairs(),
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
    fr = _Frame.of(pol)
    return fr.report(*fr.rows(pol.rel))


def coherence_level(pol):
    return check_coherence(pol).level


def is_entangled(pol):
    fr = _Frame.of(pol)
    rows = fr.rows(pol.rel)
    return fr.e1(*rows)[0] and fr.e2(*rows)[0]


def is_galois(pol):
    return check_coherence(pol).galois


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


def _tagged(pol, x_pairs=(), y_pairs=(), cross_xy=(), cross_yx=()):
    pairs = []
    pairs.extend((tag_x(a), tag_x(b)) for a, b in x_pairs)
    pairs.extend((tag_y(a), tag_y(b)) for a, b in y_pairs)
    pairs.extend((tag_x(a), tag_y(b)) for a, b in cross_xy)
    pairs.extend((tag_y(a), tag_x(b)) for a, b in cross_yx)
    carrier = pol.carrier()
    diag = [(e, e) for e in carrier]
    return UnionPreorder.from_pairs(carrier, diag + pairs)


def r_zero(pol):
    """The union of the two side orders with the relation itself.  Not
    transitively closed: whether it already is a preorder is the point."""
    return _tagged(
        pol,
        x_pairs=pol.x.pairs(),
        y_pairs=pol.y.pairs(),
        cross_xy=pol.rel,
    )


def r_hat_m(pol):
    """The one-step saturation of `r_zero` through the base images."""
    fr = _Frame.of(pol)
    rows = fr.rows(pol.rel)
    out = _tagged(
        pol,
        x_pairs=fr.z_x_pairs(*rows),
        y_pairs=fr.z_y_pairs(*rows),
        cross_xy=pol.rel,
        cross_yx=fr.z_yx_pairs(*rows),
    )
    level = coherence_level(pol)
    if level is not None and level >= 1:
        verdict = is_n_preorder(pol, out, 1)
        if not verdict.ok:
            raise LawViolation(
                "grade-1",
                "saturation of a 1-coherent polarity must be a 1-preorder",
                (verdict.clause, verdict.witness),
            )
    return out


def r_hat_g(pol):
    """`r_zero` together with all pairs forced by meets and joins of
    image sets."""
    fr = _Frame.of(pol)
    return _tagged(
        pol,
        x_pairs=pol.x.pairs(),
        y_pairs=pol.y.pairs(),
        cross_xy=pol.rel,
        cross_yx=fr.z_s_pairs() | fr.z_t_pairs(),
    )


def r_l(ex, ey):
    """The slice relation: x related to y when some base element has its
    left image above x and its right image below y.  Always makes the
    sides 2-coherent, which is certified up to grade 2 and no further."""
    pairs = set()
    X, Y, P = ex.target, ey.target, ex.base
    if ey.base != P:
        raise CarrierMismatch("extensions must share a base poset")
    for p in P.elements:
        for a in X.down(ex(p)):
            for b in Y.up(ey(p)):
                pairs.add((a, b))
    rel = frozenset(pairs)
    fr = _Frame(P, ex, ey)
    rows = fr.rows(rel)
    if fr.level(*rows, upto=2) != 2:
        for name in CONDITION_NAMES[:6]:
            ok, witness = getattr(fr, name.lower())(*rows)
            if not ok:
                raise NotCoherent("slice relation fails %s" % name, witness)
    return rel


# -- graded preorders ------------------------------------------------------


@dataclass
class NPreorderVerdict:
    ok: bool
    clause: object = None
    witness: object = None

    def __bool__(self):
        return self.ok


def is_n_preorder(pol, rel, n):
    """Decide whether `rel` is an n-preorder for the polarity.

    Grades: 0 needs a preorder matching the relation across and both
    side orders along; 1 adds commutation of the two base images; 2 adds
    order reflection on both sides; 3 adds preservation of image meets
    and joins, checked through the canonical forced pair-sets.
    """
    if not 0 <= n <= 3:
        raise ValueError("grade must be between 0 and 3")
    carrier = pol.carrier()
    if rel.carrier != carrier:
        raise CarrierMismatch("relation carrier does not match the polarity")
    if not rel.is_reflexive():
        missing = next(
            e for i, e in enumerate(carrier) if not rel.rows[i] >> i & 1
        )
        return NPreorderVerdict(False, "reflexive", missing)
    tw = rel.transitivity_witness()
    if tw is not None:
        return NPreorderVerdict(False, "transitive", tw)
    X, Y = pol.x, pol.y
    for a in X.elements:
        for b in Y.elements:
            if rel.rel(tag_x(a), tag_y(b)) != ((a, b) in pol.rel):
                return NPreorderVerdict(False, "P1", (a, b))
    for a1, a2 in X.pairs():
        if not rel.rel(tag_x(a1), tag_x(a2)):
            return NPreorderVerdict(False, "P2", (a1, a2))
    for b1, b2 in Y.pairs():
        if not rel.rel(tag_y(b1), tag_y(b2)):
            return NPreorderVerdict(False, "P3", (b1, b2))
    if n >= 1:
        for p in pol.base.elements:
            xi, yi = tag_x(pol.ex(p)), tag_y(pol.ey(p))
            if not (rel.rel(xi, yi) and rel.rel(yi, xi)):
                return NPreorderVerdict(False, "commutation", p)
    if n >= 2:
        for a1 in X.elements:
            for a2 in X.elements:
                if rel.rel(tag_x(a1), tag_x(a2)) and not X.leq(a1, a2):
                    return NPreorderVerdict(False, "reflectX", (a1, a2))
        for b1 in Y.elements:
            for b2 in Y.elements:
                if rel.rel(tag_y(b1), tag_y(b2)) and not Y.leq(b1, b2):
                    return NPreorderVerdict(False, "reflectY", (b1, b2))
    if n >= 3:
        fr = _Frame.of(pol)
        for b, a in sorted(fr.z_s_pairs(), key=repr):
            if not rel.rel(tag_y(b), tag_x(a)):
                return NPreorderVerdict(False, "P4", (b, a))
        for b, a in sorted(fr.z_t_pairs(), key=repr):
            if not rel.rel(tag_y(b), tag_x(a)):
                return NPreorderVerdict(False, "P5", (b, a))
    return NPreorderVerdict(True)


@dataclass
class EnumerationResult:
    preorders: tuple
    truncated: bool

    def __iter__(self):
        return iter(self.preorders)

    def __len__(self):
        return len(self.preorders)


class _CapReached(Exception):
    pass


def enumerate_n_preorders(pol, n, cap=None, max_carrier=None):
    """All n-preorders for the polarity, exhaustively.

    Backtracks over the undetermined pairs with incremental transitive
    closure; pairs forced by every n-preorder are preloaded and pairs no
    n-preorder may contain are barred, so every leaf is a valid result.
    The carrier size is gated (override with `max_carrier` or the
    POLAB_MAX_CARRIER environment variable); `cap` bounds the number of
    results, with a truncation flag when the search was cut short.
    """
    carrier = pol.carrier()
    gate = carrier_gate(max_carrier)
    if len(carrier) > gate:
        raise CarrierTooLarge(
            "carrier has %d elements, gate is %d" % (len(carrier), gate)
        )
    nlen = len(carrier)
    index = {e: i for i, e in enumerate(carrier)}
    fr = _Frame.of(pol)

    forced = [0] * nlen
    forbidden = [0] * nlen

    def mark(rows, a, b):
        rows[index[a]] |= 1 << index[b]

    for a1, a2 in pol.x.pairs():
        mark(forced, tag_x(a1), tag_x(a2))
    for b1, b2 in pol.y.pairs():
        mark(forced, tag_y(b1), tag_y(b2))
    for a in pol.x.elements:
        for b in pol.y.elements:
            if (a, b) in pol.rel:
                mark(forced, tag_x(a), tag_y(b))
            else:
                mark(forbidden, tag_x(a), tag_y(b))
    if n >= 1:
        for p in pol.base.elements:
            mark(forced, tag_y(pol.ey(p)), tag_x(pol.ex(p)))
            mark(forced, tag_x(pol.ex(p)), tag_y(pol.ey(p)))
    if n >= 2:
        for a1 in pol.x.elements:
            for a2 in pol.x.elements:
                if not pol.x.leq(a1, a2):
                    mark(forbidden, tag_x(a1), tag_x(a2))
        for b1 in pol.y.elements:
            for b2 in pol.y.elements:
                if not pol.y.leq(b1, b2):
                    mark(forbidden, tag_y(b1), tag_y(b2))
    if n >= 3:
        for b, a in fr.z_s_pairs() | fr.z_t_pairs():
            mark(forced, tag_y(b), tag_x(a))

    transitive_close(forced)
    if any(forced[i] & forbidden[i] for i in range(nlen)):
        return EnumerationResult((), False)

    free = [
        (i, j)
        for i in range(nlen)
        for j in range(nlen)
        if i != j
        and not forced[i] >> j & 1
        and not forbidden[i] >> j & 1
    ]
    results = []
    truncated = False

    def closure_with(rows, i, j):
        new = list(rows)
        new[i] |= 1 << j
        return transitive_close(new)

    def dfs(rows, k, excluded):
        nonlocal truncated
        while k < len(free) and rows[free[k][0]] >> free[k][1] & 1:
            k += 1
        if k == len(free):
            if cap is not None and len(results) >= cap:
                truncated = True
                raise _CapReached
            results.append(UnionPreorder(carrier, list(rows)))
            return
        i, j = free[k]
        excluded.append((i, j))
        dfs(rows, k + 1, excluded)
        excluded.pop()
        new = closure_with(rows, i, j)
        if any(new[a] & forbidden[a] for a in range(nlen)):
            return
        for a, b in excluded:
            if new[a] >> b & 1:
                return
        dfs(new, k + 1, excluded)

    try:
        dfs(forced, 0, [])
    except _CapReached:
        pass
    return EnumerationResult(tuple(results), truncated)


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


def _rigidity_failures(u):
    """The absent pairs of a grade-3 preorder `u` whose closure into `u`
    is still a grade-3 preorder.

    Closing (i, j) in adds exactly the pairs from below i to above j.
    Of the grade-3 clauses only P1 and reflectX/reflectY forbid pairs,
    and on a grade-3 preorder they pin the X×Y, X×X and Y×Y blocks, so
    the closure keeps the grade iff every pair it adds runs from Y to X:
    every left element below i is below j, and every right element above
    j is above i.  An absent pair that starts in X or ends in Y fails
    this at once.
    """
    n = len(u.carrier)
    xmask = 0
    for k, e in enumerate(u.carrier):
        if e[0] == X_SIDE:
            xmask |= 1 << k
    ymask = ((1 << n) - 1) & ~xmask
    rows = u.rows
    cols = [0] * n
    for i, r in enumerate(rows):
        for j in _mask_iter(r):
            cols[j] |= 1 << i
    return [
        (u.carrier[i], u.carrier[j])
        for i in range(n)
        for j in range(n)
        if not rows[i] >> j & 1
        and not rows[j] & ymask & ~rows[i]
        and not cols[i] & xmask & ~cols[j]
    ]


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
    if not u.is_preorder():
        raise LawViolation(
            "preorder",
            "canonical relation of a Galois polarity must close",
            u.transitivity_witness(),
        )
    verdict = is_n_preorder(pol, u, 3)
    if not verdict.ok:
        raise LawViolation(
            "grade-3",
            "canonical relation must be a grade-3 preorder (%s fails)" % verdict.clause,
            (verdict.clause, verdict.witness),
        )
    alt = _tagged(
        pol,
        x_pairs=pol.x.pairs(),
        y_pairs=pol.y.pairs(),
        cross_xy=pol.rel,
        cross_yx=_Frame.of(pol).z_yx_alt_pairs(),
    )
    diff = _differing_pair(alt, u)
    if diff is not None:
        raise LawViolation("pointwise", "pointwise characterisation must agree", diff)
    loose = _rigidity_failures(u)
    if loose:
        raise LawViolation("rigidity", "a second grade-3 preorder exists", loose[0])
    inter = intermediate_structure(pol, u)
    _certify_base_image(pol, inter)
    q = inter.quotient.poset
    for law, side, iota, src, tgt in (
        ("meet-preservation", pol.x, inter.iota_x, pol.x.cols, q.cols),
        ("join-preservation", pol.y, inter.iota_y, pol.y.rows, q.rows),
    ):
        lost = _bounds_failure(_index_image(iota), src, tgt)
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
    # Equality needs every related pair to have a slice witness; a pair
    # like (top, top) related without one merges two non-image elements.
    witnessed = all(
        any(
            pol.x.leq(a, pol.ex(p)) and pol.y.leq(pol.ey(p), b)
            for p in pol.base.elements
        )
        for a, b in pol.rel
    )
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
