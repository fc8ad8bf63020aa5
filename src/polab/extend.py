"""Moving polarity relations along extensions of the two sides.

A context pairs an extension polarity with one further extension on
each side.  Relations travel up by saturating through the images and
down by reading the relation off on the images; the module checks the
laws governing coherence along both directions and the adjunction
between the two relation lattices.

A relation between X and Y satisfies C1 and C2, i.e. is 0-coherent,
exactly when it is a down-set of X × Yᵒᵖ.  Saturation sends a relation
to the down-closure of its image pairs and read-back is a preimage, so
both preserve unions: each context keeps one transfer kernel of
bit-masks, the saturation and the image bit of every single inner pair,
and both maps are unions over it.  The adjunction laws are therefore
decided on generators (single pairs and their principal down-sets),
with no size gate.  Every relation of a side lives on one condition
frame, the inner polarity's or the context's outer polarity's, which
converts its pairs to masks in the kernel's layout (the pair (x_i, y_j)
at bit i·|Y| + j) and whose lanes give the product orders
(`_pair_orders`), so a relation is graded on the mask that moved it.
Clause 5 is one closure comparison on the outer frame's lanes, not on
the kernel, so a fault in the kernel fails it.  Clause 6 is one closure
too: C1 to C4 are closure rules and C5 to C8 only rule pairs out, so
the least relation above the image pairs satisfying C1 to C4
(`_least_graded`) reaches every grade that some 0-coherent relation
above them reaches.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import CarrierMismatch, NotEmbedding, NotZeroPreorder
from .order import (
    MonotoneMap,
    UnionPreorder,
    _bound_index,
    _expressible,
    _gather,
    _image_mask,
    _mask_iter,
    _reflection_failure,
    _union_of,
    cached_property,
    is_join_extension,
    is_meet_extension,
    is_order_embedding,
)
from .polarity import (
    ExtensionPolarity,
    # Not called here any more; bench/tracer.py still wraps this name.
    coherence_level,  # noqa: F401
    is_n_preorder,
)


class ExtensionContext:
    """An extension polarity plus one more extension of each side.  The
    outer polarity with no pairs, whose frame grades every outer
    relation, the transfer kernel and the guard of downward transfer are
    built on first use and kept; the inner polarities are graded on the
    inner polarity's own frame."""

    def __init__(self, inner, ix, iy):
        if ix.base != inner.x or iy.base != inner.y:
            raise CarrierMismatch("side extensions must extend the inner sides")
        self.inner = inner
        self.ix = ix
        self.iy = iy

    @cached_property
    def _outer(self):
        inner = self.inner
        return ExtensionPolarity(
            inner.base, inner.ex.compose(self.ix), inner.ey.compose(self.iy), ()
        )

    def outer(self, rel=None):
        return self._outer.with_relation(extend_relation(self) if rel is None else rel)

    @property
    def _outer_frame(self):
        """The condition workspace of the outer polarities."""
        return self._outer._frame

    @cached_property
    def _transfer(self):
        return _Transfer(self)

    @cached_property
    def _image_bounds_kept(self):
        """Whether ix keeps the meets and iy the joins of subsets of the
        base images: the guard of downward transfer."""
        X, Y = self.inner.x, self.inner.y
        return _preserves_image_bounds(
            self.ix, self.inner.ex, X.rows, X.cols, self.ix.target.cols
        ) and _preserves_image_bounds(
            self.iy, self.inner.ey, Y.cols, Y.rows, self.iy.target.rows
        )


class _Transfer:
    """Saturation and read-back of a context on bit-masks.

    Bit i·|Y| + j of an inner relation stands for the pair (x_i, y_j),
    and likewise for the outer sides.  Saturation sends the inner pair p
    to `sat[p]`, the pairs below its image pair (at bit `image[p]`) in
    X' × Y'ᵒᵖ, and preserves unions; read-back keeps the inner pairs
    whose image bit is set.  `below` holds the principal down-sets of
    the outer pairs.
    """

    __slots__ = ("below", "image", "sat")

    def __init__(self, ctx):
        self.below = _pair_orders(ctx._outer_frame)
        ny = len(ctx.iy.target)
        self.image = [a * ny + b for a in ctx.ix.map.idx for b in ctx.iy.map.idx]
        self.sat = [self.below[q] for q in self.image]

    def extend(self, mask):
        return _union_of(self.sat, mask)

    def restrict(self, mask):
        out = 0
        for p, q in enumerate(self.image):
            if mask >> q & 1:
                out |= 1 << p
        return out


def extend_relation(ctx):
    """The saturation of the inner relation on the outer sides: x' is
    related to y' when some inner related pair brackets them through
    the side embeddings."""
    return ctx._outer_frame.pairs(ctx._transfer.extend(ctx.inner._mask))


def restrict_relation(ctx, sbar):
    """The relation read back on the inner sides through the embeddings."""
    return ctx.inner._frame.pairs(ctx._transfer.restrict(ctx._outer_frame.mask(sbar)))


def _preserves_image_bounds(i, e, up, down, outer):
    """i preserves meets in its base of subsets of the image of e, for
    `up`/`down`/`outer` the `rows`/`cols` of its base and the `cols` of
    its target; given `cols`/`rows`/`rows`, joins.  Only canonical
    subsets matter: a subset's meet is also the meet of all images above
    it."""
    image = _image_mask(e.map.idx)
    f = i.map.idx
    for x in _mask_iter(_expressible(up, down, image)):
        images = 0
        for m in _mask_iter(image & up[x]):
            images |= 1 << f[m]
        if _bound_index(outer, images) != f[x]:
            return False
    return True


# A clause of a transfer law: whether it applies, whether it holds, and a note.
ClauseReport = namedtuple("ClauseReport", "applicable holds note", defaults=("",))


def _pair_orders(frame):
    """The product order of X × Yᵒᵖ on a frame's pairs, the pair (x_i,
    y_j) at bit i·|Y| + j: for each pair, the mask of the pairs below it,
    the lanes below x_i times the elements above y_j.  Its down-sets are
    the relations satisfying C1 and C2, the 0-coherent ones."""
    return [down * up for down in frame.lanes.spreads for up in frame.yrows]


def _least_graded(frame, mask):
    """The pair mask of the least relation above `mask` that satisfies
    C1 to C4; C5 to C8 hold on every subset of a relation that satisfies
    them, so it has grade n exactly when some such relation has.  After
    the base pairs (C3) and the down-closure in X × Yᵒᵖ (C1, C2), each
    base element k in turn gives the row of e_X(k) to every row holding
    e_Y(k) (C4).  That keeps C1 and C2, the rows holding e_Y(k) being a
    down-set of X, and one pass is Warshall's closure with the base
    elements as pivots.  The walk over all such relations is
    `oracles._coherent_relations`."""
    lanes = frame.lanes
    return lanes.pivot_close(lanes.down_close(mask | lanes.pivot_bits))


def check_extension_preservation(ctx):
    """Clause-by-clause report for the laws of upward relation transfer.

    Clauses: (1) the saturated relation is always 0-coherent; (2) inner
    pairs map into it, with the converse exactly under inner 0-coherence;
    (3) grades 1 and 2 transfer up; (4) Galois transfers up along
    meet/join side extensions; (5) the saturation is least among
    0-coherent outer relations containing the image pairs, that is, it
    lies inside their down-closure in X' × Y'ᵒᵖ, closed on the outer
    frame's lanes rather than read off the transfer kernel that built it;
    (6) if the inner relation holds grade 2 or 3 but the saturation
    misses it, no 0-coherent outer relation containing the image pairs
    reaches it either, decided on `_least_graded` at every size; at
    grade 2 it can apply only where clause 3 fails.
    """
    t = ctx._transfer
    fin, fout = ctx.inner._frame, ctx._outer_frame
    r = ctx.inner._mask
    rbar = t.extend(r)
    image = 0
    for p in _mask_iter(r):
        image |= 1 << t.image[p]
    inner_level, inner_galois = fin.mask_grade(r)
    outer_level, outer_galois = fout.mask_grade(rbar)
    report = {}

    report["1"] = ClauseReport(True, outer_level is not None)

    forward = not image & ~rbar
    back = t.restrict(rbar) == r
    report["2"] = ClauseReport(True, forward and back == (inner_level is not None))

    if inner_level is not None and inner_level >= 1:
        holds = outer_level is not None and outer_level >= min(inner_level, 2)
        report["3"] = ClauseReport(True, holds)
    else:
        report["3"] = ClauseReport(False, True, "inner polarity below grade 1")

    if inner_galois and is_meet_extension(ctx.ix) and is_join_extension(ctx.iy):
        report["4"] = ClauseReport(True, outer_galois)
    else:
        report["4"] = ClauseReport(False, True, "side extensions not meet/join")

    report["5"] = ClauseReport(True, not rbar & ~fout.lanes.down_close(image))

    missed = [n for n in (2, 3) if (inner_level or 0) >= n > (outer_level or 0)]
    reached = []
    if missed:
        least = _least_graded(fout, image)
        reached = [n for n in missed if fout.mask_level(least, n) == n]
    notes = "; ".join("grade %d reachable" % n for n in reached)
    report["6"] = ClauseReport(bool(missed), not reached, notes)
    return report


def check_restriction_preservation(ctx, sbar):
    """Downward transfer: grade is preserved by restriction, with the
    grade-3/Galois case needing the side extensions to respect image
    meets and joins."""
    t = ctx._transfer
    fin, fout = ctx.inner._frame, ctx._outer_frame
    s = fout.mask(sbar)
    under = t.restrict(s)
    outer_level, outer_galois = fout.mask_grade(s)
    inner_level, inner_galois = fin.mask_grade(under)
    report = {}
    for n in range(3):
        if outer_level is not None and outer_level >= n:
            report[str(n)] = ClauseReport(
                True, inner_level is not None and inner_level >= n
            )
        else:
            report[str(n)] = ClauseReport(False, True, "outer below grade %d" % n)
    guards = outer_level == 3 and ctx._image_bounds_kept
    if guards:
        report["3"] = ClauseReport(True, inner_level == 3)
    else:
        report["3"] = ClauseReport(False, True, "guard conditions not met")
    if guards and outer_galois:
        report["galois"] = ClauseReport(True, inner_galois)
    else:
        report["galois"] = ClauseReport(False, True, "guard conditions not met")
    return report


PhiResult = namedtuple("PhiResult", "inner_preorder phi grades")


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
    # The carrier index map: X into X', then Y into Y' after X'.
    lift = ctx.ix.map.idx + tuple(len(ctx.ix.target) + j for j in ctx.iy.map.idx)
    pulled = UnionPreorder(inner.carrier(), _gather(outer_preorder.rows, lift), inner._frame.index)
    q_in = pulled.quotient()
    q_out = outer_preorder.quotient()
    phi = MonotoneMap._of_idx(q_in.poset, q_out.poset, q_in.descend([q_out.of[t] for t in lift]))
    if not is_order_embedding(phi):
        raise NotEmbedding("quotient comparison map must embed", _reflection_failure(phi))
    # A grade held upstairs must hold downstairs.
    grades = {
        n: (not is_n_preorder(outer, outer_preorder, n).ok)
        or is_n_preorder(inner, pulled, n).ok
        for n in range(4)
    }
    return PhiResult(inner_preorder=pulled, phi=phi, grades=grades)


# The verdicts of the adjunction laws.  Each `*_checked` counts the generators
# its law was decided on: the inner pairs for the unit, the outer pairs for the
# counit, both for the two-sided law.  `witness` is the first failing generator
# as (law, pair), the law one of "unit-inclusion", "unit-equality" and "counit";
# None when every law holds.
AdjunctionReport = namedtuple(
    "AdjunctionReport",
    "unit_checked unit_holds counit_checked counit_holds law_checked law_holds witness",
)


def relation_lattice_adjunction(ctx):
    """The transfer maps form an adjunction between the lattice of inner
    relations and the lattice of 0-coherent outer relations.

    Saturation `ext` and read-back `res` are unions over single pairs,
    so each law is decided on generators:
    - the unit inclusion r ⊆ res(ext r), for every inner r, holds iff
      p ∈ res(ext{p}) for every inner pair p;
    - the unit equality res(ext r) = r, for every 0-coherent r, holds
      iff res(ext ↓p) = ↓p for every p, a down-set of X × Yᵒᵖ being the
      union of the principal down-sets of its pairs;
    - the counit ext(res s) ⊆ s, for every 0-coherent outer s, holds iff
      ext(res ↓q) ⊆ ↓q for every outer pair q;
    - the two-sided law ext r ⊆ s ⇔ r ⊆ res s holds iff the unit
      inclusion and the counit do, since ext and res are monotone and
      ext r, a union of down-sets, is 0-coherent (Erné, Koslowski,
      Melton and Strecker, "A primer on Galois connections", 1993).
    The brute-force check over all relations is
    `oracles.oracle_relation_lattice_adjunction`.
    """
    t, fin = ctx._transfer, ctx.inner._frame
    witness = None
    unit_holds = included = True
    for p, down in enumerate(_pair_orders(fin)):
        if not t.restrict(t.sat[p]) >> p & 1:
            law, included = "unit-inclusion", False
        elif t.restrict(t.extend(down)) != down:
            law = "unit-equality"
        else:
            continue
        unit_holds = False
        witness = witness or (law, *fin.pairs(1 << p))
    counit_holds = True
    for q, down in enumerate(t.below):
        if t.extend(t.restrict(down)) & ~down:
            counit_holds = False
            witness = witness or ("counit", *ctx._outer_frame.pairs(1 << q))
    k, m = len(t.sat), len(t.below)
    return AdjunctionReport(
        unit_checked=k,
        unit_holds=unit_holds,
        counit_checked=m,
        counit_holds=counit_holds,
        law_checked=k + m,
        law_holds=included and counit_holds,
        witness=witness,
    )


def slice_extension_is_slice(ctx):
    """The saturation of the slice relation is the slice relation of the
    composed extensions.  Both slice relations are read off kept frames:
    the inner polarity's and the context's outer one."""
    inner, outer = ctx.inner._frame, ctx._outer_frame
    return ctx._transfer.extend(inner.slice_mask()) == outer.slice_mask()
