"""Moving polarity relations along extensions of the two sides.

A context pairs an extension polarity with one further extension on
each side.  Relations travel up by saturating through the images and
down by reading the relation off on the images; the module checks the
laws governing coherence along both directions and the adjunction
between the two relation lattices.

A relation between X and Y satisfies C1 and C2, i.e. is 0-coherent,
exactly when it is a down-set of X × Yᵒᵖ.  So the 0-coherent outer
relations containing the image pairs are the down-sets above the
down-closure of those pairs; clause 5 checks that this least one is the
saturation.  The laws quantified over those relations walk the
down-sets directly instead of filtering all 2^k relations, and grade
each one on a frame of the outer sides built once per context.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import CarrierMismatch, CarrierTooLarge, NotEmbedding, NotZeroPreorder
from .order import (
    MonotoneMap,
    UnionPreorder,
    _bound_index,
    _expressible,
    _image_mask,
    _index_image,
    _mask_iter,
    _reflection_failure,
    is_join_extension,
    is_meet_extension,
    is_order_embedding,
    tag_x,
    tag_y,
)
from .polarity import (
    ExtensionPolarity,
    _Frame,
    check_coherence,
    # Not called here any more; bench/tracer.py still wraps this name.
    coherence_level,  # noqa: F401
    is_n_preorder,
    r_l,
)


class ExtensionContext:
    """An extension polarity plus one more extension of each side."""

    __slots__ = ("inner", "ix", "iy", "_outer_ex", "_outer_ey", "_frame")

    def __init__(self, inner, ix, iy):
        if ix.base != inner.x or iy.base != inner.y:
            raise CarrierMismatch("side extensions must extend the inner sides")
        self.inner = inner
        self.ix = ix
        self.iy = iy
        self._outer_ex = self._outer_ey = self._frame = None

    @property
    def outer_ex(self):
        if self._outer_ex is None:
            self._outer_ex = self.inner.ex.compose(self.ix)
        return self._outer_ex

    @property
    def outer_ey(self):
        if self._outer_ey is None:
            self._outer_ey = self.inner.ey.compose(self.iy)
        return self._outer_ey

    def outer(self, rel=None):
        if rel is None:
            rel = extend_relation(self)
        return ExtensionPolarity(self.inner.base, self.outer_ex, self.outer_ey, rel)

    def _outer_frame(self):
        """The condition workspace of the outer polarities, built once."""
        if self._frame is None:
            self._frame = _Frame(self.inner.base, self.outer_ex, self.outer_ey)
        return self._frame


def extend_relation(ctx):
    """The saturation of the inner relation on the outer sides: x' is
    related to y' when some inner related pair brackets them through
    the side embeddings."""
    out = set()
    xo, yo = ctx.ix.target, ctx.iy.target
    for x, y in ctx.inner.rel:
        for a in xo.down(ctx.ix(x)):
            for b in yo.up(ctx.iy(y)):
                out.add((a, b))
    return frozenset(out)


def restrict_relation(ctx, sbar):
    """The relation read back on the inner sides through the embeddings."""
    return frozenset(
        (x, y)
        for x in ctx.inner.x.elements
        for y in ctx.inner.y.elements
        if (ctx.ix(x), ctx.iy(y)) in sbar
    )


def _preserves_image_bounds(i, e, up, down, outer):
    """i preserves meets in its base of subsets of the image of e, for
    `up`/`down`/`outer` the `rows`/`cols` of its base and the `cols` of
    its target; given `cols`/`rows`/`rows`, joins.  Only canonical
    subsets matter: a subset's meet is also the meet of all images above
    it."""
    image = _image_mask(e)
    f = _index_image(i.map)
    for x in _mask_iter(_expressible(up, down, image)):
        images = 0
        for m in _mask_iter(image & up[x]):
            images |= 1 << f[m]
        if _bound_index(outer, images) != f[x]:
            return False
    return True


@dataclass
class ClauseReport:
    applicable: bool
    holds: bool
    note: str = ""


def _pair_orders(X, Y):
    """The product order of X × Yᵒᵖ on the pairs, the pair (x_i, y_j)
    at bit i·|Y| + j: for each pair, the mask of the pairs below it and
    the mask of the pairs above it.  Its down-sets are exactly the
    relations satisfying C1 and C2, the 0-coherent ones."""
    ny = len(Y)
    below, above = [], []
    for i in range(len(X)):
        for j in range(ny):
            down = up = 0
            for k in _mask_iter(X.cols[i]):
                down |= Y.rows[j] << k * ny
            for k in _mask_iter(X.rows[i]):
                up |= Y.cols[j] << k * ny
            below.append(down)
            above.append(up)
    return below, above


def _pair_mask(X, Y, pairs):
    ny = len(Y)
    mask = 0
    for a, b in pairs:
        mask |= 1 << X.index[a] * ny + Y.index[b]
    return mask


def _down_closure(below, mask):
    out = 0
    for p in _mask_iter(mask):
        out |= below[p]
    return out


def _down_sets(X, Y, floor):
    """The 0-coherent relations between X and Y containing the pairs
    `floor`, as the down-sets of X × Yᵒᵖ above its down-closure.

    Each comes as left bit-rows (bit j of row i for the pair (x_i, y_j)),
    in ascending order of the relation read as the binary number with
    that pair at bit i·|Y| + j.  The walk branches on the highest
    undecided pair, first leaving it out together with every pair above
    it, then taking it in together with every pair below it.  Neither
    choice can clash with earlier ones, so every branch ends in a result
    and consecutive results are O(|X||Y|) mask steps apart (ideal
    enumeration; Habib, Medina, Nourine and Steiner, "Efficient
    algorithms on distributive lattices", DAM 2001).
    """
    nx, ny = len(X), len(Y)
    below, above = _pair_orders(X, Y)
    full, row = (1 << nx * ny) - 1, (1 << ny) - 1
    stack = [(_down_closure(below, _pair_mask(X, Y, floor)), 0)]
    while stack:
        taken, left_out = stack.pop()
        free = full & ~(taken | left_out)
        while free:
            p = free.bit_length() - 1
            stack.append((taken | below[p], left_out))
            left_out |= above[p]
            free &= ~above[p]
        yield [taken >> i * ny & row for i in range(nx)]


def _transpose(rows, n):
    """Bit-rows of the transposed relation, with `n` rows."""
    out = [0] * n
    for i, r in enumerate(rows):
        for j in _mask_iter(r):
            out[j] |= 1 << i
    return out


def check_extension_preservation(ctx, enumeration_limit=13):
    """Clause-by-clause report for the laws of upward relation transfer.

    Clauses: (1) the saturated relation is always 0-coherent; (2) inner
    pairs map into it, with the converse exactly under inner 0-coherence;
    (3) grades 1 and 2 transfer up; (4) Galois transfers up along
    meet/join side extensions; (5) the saturation is least among
    0-coherent outer relations containing the image pairs, that is, it
    lies inside their down-closure in X' × Y'ᵒᵖ; (6) if the inner
    relation holds grade 2 or 3 but the saturation misses it, no
    0-coherent outer relation containing the image pairs reaches it
    either (checked on every one of them when at most
    `enumeration_limit` outer pairs are not image pairs).
    """
    inner = ctx.inner
    rbar = extend_relation(ctx)
    outer = ctx.outer(rbar)
    inner_rep = check_coherence(inner)
    outer_rep = check_coherence(outer)
    report = {}

    report["1"] = ClauseReport(True, outer_rep.level is not None)

    forward = all((ctx.ix(x), ctx.iy(y)) in rbar for x, y in inner.rel)
    back = restrict_relation(ctx, rbar) == inner.rel
    report["2"] = ClauseReport(
        True, forward and back == (inner_rep.level is not None)
    )

    if inner_rep.level is not None and inner_rep.level >= 1:
        holds = outer_rep.level is not None and outer_rep.level >= min(
            inner_rep.level, 2
        )
        report["3"] = ClauseReport(True, holds)
    else:
        report["3"] = ClauseReport(False, True, "inner polarity below grade 1")

    if inner_rep.galois and is_meet_extension(ctx.ix) and is_join_extension(ctx.iy):
        report["4"] = ClauseReport(True, outer_rep.galois)
    else:
        report["4"] = ClauseReport(False, True, "side extensions not meet/join")

    X, Y = outer.x, outer.y
    image_pairs = frozenset(
        (ctx.ix(x), ctx.iy(y)) for x, y in inner.rel
    )
    below, _ = _pair_orders(X, Y)
    least = _down_closure(below, _pair_mask(X, Y, image_pairs))
    report["5"] = ClauseReport(True, not _pair_mask(X, Y, rbar) & ~least)

    notes6 = []
    holds6 = True
    applicable6 = False
    for n in (2, 3):
        if inner_rep.level is None or inner_rep.level < n:
            continue
        if outer_rep.level is not None and outer_rep.level >= n:
            continue
        applicable6 = True
        if len(X) * len(Y) - len(image_pairs) > enumeration_limit:
            notes6.append("grade %d argued via monotonicity" % n)
            continue
        frame = ctx._outer_frame()
        for rx in _down_sets(X, Y, image_pairs):
            if frame.level(rx, _transpose(rx, len(Y)), n) == n:
                holds6 = False
                notes6.append("grade %d reachable" % n)
                break
    report["6"] = ClauseReport(applicable6, holds6, "; ".join(notes6))
    return report


def check_restriction_preservation(ctx, sbar):
    """Downward transfer: grade is preserved by restriction, with the
    grade-3/Galois case needing the side extensions to respect image
    meets and joins."""
    under = restrict_relation(ctx, sbar)
    inner = ctx.inner.with_relation(under)
    outer = ctx.outer(sbar)
    outer_rep = check_coherence(outer)
    inner_rep = check_coherence(inner)
    report = {}
    for n in range(3):
        if outer_rep.level is not None and outer_rep.level >= n:
            report[str(n)] = ClauseReport(
                True, inner_rep.level is not None and inner_rep.level >= n
            )
        else:
            report[str(n)] = ClauseReport(False, True, "outer below grade %d" % n)
    X, Y = ctx.inner.x, ctx.inner.y
    guards = _preserves_image_bounds(
        ctx.ix, ctx.inner.ex, X.rows, X.cols, ctx.ix.target.cols
    ) and _preserves_image_bounds(ctx.iy, ctx.inner.ey, Y.cols, Y.rows, ctx.iy.target.rows)
    if guards and outer_rep.level == 3:
        report["3"] = ClauseReport(True, inner_rep.level == 3)
    else:
        report["3"] = ClauseReport(False, True, "guard conditions not met")
    if guards and outer_rep.galois:
        report["galois"] = ClauseReport(True, inner_rep.galois)
    else:
        report["galois"] = ClauseReport(False, True, "guard conditions not met")
    return report


@dataclass
class PhiResult:
    inner_preorder: UnionPreorder
    phi: MonotoneMap
    grades: dict


def phi_map(ctx, outer_rel, outer_preorder):
    """Pull an outer preorder back to the inner carrier and embed the
    inner quotient into the outer one.

    `outer_rel` is the outer relation the preorder is graded against;
    `outer_preorder` must be at least a 0-preorder for it.  Returns the
    pulled-back preorder, the embedding between the quotients, and the
    grades transferred (graded against the restricted relation)."""
    outer = ctx.outer(outer_rel)
    if not is_n_preorder(outer, outer_preorder, 0).ok:
        raise NotZeroPreorder("outer relation is not a 0-preorder")
    inner = ctx.inner.with_relation(restrict_relation(ctx, outer_rel))

    def lift(e):
        side, raw = e
        return tag_x(ctx.ix(raw)) if side == "X" else tag_y(ctx.iy(raw))

    carrier = inner.carrier()
    pairs = [
        (a, b)
        for a in carrier
        for b in carrier
        if outer_preorder.rel(lift(a), lift(b))
    ]
    pulled = UnionPreorder.from_pairs(carrier, pairs)
    q_in = pulled.quotient()
    q_out = outer_preorder.quotient()
    phi = MonotoneMap(
        q_in.poset,
        q_out.poset,
        {rep: q_out.project(lift(rep)) for rep in q_in.poset.elements},
    )
    if not is_order_embedding(phi):
        raise NotEmbedding(
            "quotient comparison map must embed", _reflection_failure(phi)
        )
    # A grade held upstairs must hold downstairs.
    grades = {
        n: (not is_n_preorder(outer, outer_preorder, n).ok)
        or is_n_preorder(inner, pulled, n).ok
        for n in range(4)
    }
    return PhiResult(inner_preorder=pulled, phi=phi, grades=grades)


@dataclass
class AdjunctionReport:
    unit_checked: int
    unit_holds: bool
    counit_checked: int
    counit_holds: bool
    law_checked: int
    law_holds: bool
    exhaustive: bool


def relation_lattice_adjunction(ctx, seed=0, samples=500, pair_budget=1 << 20):
    """The transfer maps form an adjunction between the lattice of inner
    relations and the lattice of 0-coherent outer relations.

    Unit and counit laws are checked for every relation when the side
    carriers allow it; the two-sided law is checked on every pair when
    that fits the pair budget and on seeded samples otherwise.
    """
    inner = ctx.inner
    nx, ny = len(inner.x), len(inner.y)
    nxo, nyo = len(ctx.ix.target), len(ctx.iy.target)
    if nx * ny > 12 or nxo * nyo > 16:
        raise CarrierTooLarge("relation lattices too large to enumerate")
    inner_pairs = [(a, b) for a in inner.x.elements for b in inner.y.elements]
    all_inner = [
        frozenset(p for k, p in enumerate(inner_pairs) if m >> k & 1)
        for m in range(1 << len(inner_pairs))
    ]
    xo, yo = ctx.ix.target, ctx.iy.target
    coherent_outer = [
        frozenset(
            (xo.elements[i], yo.elements[j])
            for i, row in enumerate(rows)
            for j in _mask_iter(row)
        )
        for rows in _down_sets(xo, yo, ())
    ]

    frame = _Frame.of(inner)
    unit_holds = True
    extended = {}
    for r in all_inner:
        c = ExtensionContext(inner.with_relation(r), ctx.ix, ctx.iy)
        rb = extend_relation(c)
        extended[r] = rb
        if not r <= restrict_relation(c, rb):
            unit_holds = False
        if frame.level(*frame.rows(r), 0) is not None:
            if r != restrict_relation(c, rb):
                unit_holds = False

    counit_holds = True
    restricted = {}
    for s in coherent_outer:
        under = restrict_relation(ctx, s)
        restricted[s] = under
        c = ExtensionContext(inner.with_relation(under), ctx.ix, ctx.iy)
        if not extend_relation(c) <= s:
            counit_holds = False

    law_pairs = len(all_inner) * len(coherent_outer)
    exhaustive = law_pairs <= pair_budget
    law_holds = True
    if exhaustive:
        candidates = itertools.product(all_inner, coherent_outer)
        law_checked = law_pairs
    else:
        rng = random.Random(seed)
        candidates = [
            (rng.choice(all_inner), rng.choice(coherent_outer))
            for _ in range(samples)
        ]
        law_checked = samples
    for r, s in candidates:
        if (extended[r] <= s) != (r <= restricted[s]):
            law_holds = False
            break
    return AdjunctionReport(
        unit_checked=len(all_inner),
        unit_holds=unit_holds,
        counit_checked=len(coherent_outer),
        counit_holds=counit_holds,
        law_checked=law_checked,
        law_holds=law_holds,
        exhaustive=exhaustive,
    )


def slice_extension_is_slice(ctx):
    """The saturation of the slice relation is the slice relation of the
    composed extensions."""
    inner_slice = r_l(ctx.inner.ex, ctx.inner.ey)
    c = ExtensionContext(ctx.inner.with_relation(inner_slice), ctx.ix, ctx.iy)
    return extend_relation(c) == r_l(ctx.outer_ex, ctx.outer_ey)
