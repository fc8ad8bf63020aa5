"""Concept lattices of order polarities and the maps into them.

The lattice of closed left-sets is built as the intersection closure of
the attribute extents (one per right element) together with the full
left carrier; closed sets are carried as bit-masks over the left poset
and used directly as lattice element ids.
"""

from __future__ import annotations

from .errors import LawViolation, NotCompleteLattice, PreservationViolation
from .order import (
    MonotoneMap,
    UnionPreorder,
    _bounds_failure,
    _common,
    _intersection_lattice,
    _lift,
    check_galois_connection,
    is_meet_extension,
    is_join_extension,
    tag_x,
    tag_y,
)
from .polarity import _frame_rows


def polar_right(pol, xs):
    """Right elements related to everything in `xs`."""
    return frozenset(
        b for b in pol.y.elements if all((a, b) in pol.rel for a in xs)
    )


def polar_left(pol, ys):
    return frozenset(
        a for a in pol.x.elements if all((a, b) in pol.rel for b in ys)
    )


def xi(pol, x):
    """The extent generated by one left element."""
    return polar_left(pol, polar_right(pol, [x]))


def upsilon(pol, y):
    """The extent of one right element."""
    return polar_left(pol, [y])


class ConceptLattice:
    """The complete lattice of closed left-sets of a polarity.

    `poset` has the closed sets as bit-masks over the left carrier,
    ordered by inclusion; `xi_mask` / `upsilon_mask` locate the images
    of the two canonical maps.
    """

    __slots__ = ("polarity", "poset", "xi_mask", "upsilon_mask")

    def __init__(self, polarity, poset, xi_mask, upsilon_mask):
        self.polarity = polarity
        self.poset = poset
        self.xi_mask = xi_mask
        self.upsilon_mask = upsilon_mask

    def extent(self, mask):
        return self.polarity.x.elements_of(mask)

    def xi_map(self):
        return MonotoneMap(self.polarity.x, self.poset, dict(self.xi_mask))

    def upsilon_map(self):
        return MonotoneMap(self.polarity.y, self.poset, dict(self.upsilon_mask))


def concept_lattice(pol):
    """The concept lattice, read off the polarity's kept relation rows:
    the extent of the j-th right element is `ry[j]`, and that generated
    by the i-th left element the intersection of the extents of the
    right elements related to it."""
    _, (rx, ry) = _frame_rows(pol)
    full = (1 << len(pol.x)) - 1
    lattice = _intersection_lattice(full, ry)
    xi_mask = {a: _common(ry, rx[i], full) for i, a in enumerate(pol.x.elements)}
    return ConceptLattice(pol, lattice, xi_mask, dict(zip(pol.y.elements, ry)))


def prop_order_preorder(pol):
    """The preorder on the tagged union defined pointwise from the
    relation alone: left-left by attribute-row containment, right-right
    by extent containment, across by the relation, and right-left by the
    rectangle condition.  Its agreement with the inclusion order of the
    canonical images in the concept lattice is what the tests check."""
    X, Y = pol.x, pol.y
    pairs = []
    for x1 in X.elements:
        for x2 in X.elements:
            if all((x1, y) in pol.rel for y in Y.elements if (x2, y) in pol.rel):
                pairs.append((tag_x(x1), tag_x(x2)))
    for y1 in Y.elements:
        for y2 in Y.elements:
            if all((x, y2) in pol.rel for x in X.elements if (x, y1) in pol.rel):
                pairs.append((tag_y(y1), tag_y(y2)))
    for x in X.elements:
        for y in Y.elements:
            if (x, y) in pol.rel:
                pairs.append((tag_x(x), tag_y(y)))
    for y in Y.elements:
        for x in X.elements:
            if all(
                (x1, y1) in pol.rel
                for x1 in X.elements
                if (x1, y) in pol.rel
                for y1 in Y.elements
                if (x, y1) in pol.rel
            ):
                pairs.append((tag_y(y), tag_x(x)))
    return UnionPreorder.from_pairs(pol.carrier(), pairs)


def inclusion_preorder(pol):
    """The same preorder read off from extent inclusion in the concept
    lattice; the independent route for the dual-route comparison."""
    lat = concept_lattice(pol)
    carrier = pol.carrier()

    def mask(e):
        side, raw = e
        return lat.xi_mask[raw] if side == "X" else lat.upsilon_mask[raw]

    pairs = [
        (a, b) for a in carrier for b in carrier if mask(a) & ~mask(b) == 0
    ]
    return UnionPreorder.from_pairs(carrier, pairs)


def _embeds(side, images, pointwise):
    """Whether a canonical map embeds the poset `side`: s1 <= s2 exactly
    when `pointwise[s1]` lies inside `pointwise[s2]`, masks read off the
    relation.  The inclusion of the lattice images `images` must agree
    with that pointwise reading on every pair."""
    verdict = True
    for s1 in side.elements:
        for s2 in side.elements:
            below = pointwise[s1] & ~pointwise[s2] == 0
            if below != (images[s1] & ~images[s2] == 0):
                raise LawViolation(
                    "embedding-routes",
                    "pointwise embedding test disagrees with lattice",
                    (s1, s2),
                )
            verdict = verdict and side.leq(s1, s2) == below
    return verdict


def xi_embedding(pol):
    """Whether the left canonical map embeds: x1 goes below x2 when every
    right element related to x2 is related to x1, that is, when the right
    elements unrelated to x1 are unrelated to x2."""
    unrelated = {
        a: pol.y.mask_of(b for b in pol.y.elements if (a, b) not in pol.rel)
        for a in pol.x.elements
    }
    return _embeds(pol.x, concept_lattice(pol).xi_mask, unrelated)


def upsilon_embedding(pol):
    """Whether the right canonical map embeds: y1 goes below y2 when every
    left element related to y1 is related to y2."""
    related = {
        b: pol.x.mask_of(a for a in pol.x.elements if (a, b) in pol.rel)
        for b in pol.y.elements
    }
    return _embeds(pol.y, concept_lattice(pol).upsilon_mask, related)


def _require_completion(e, kind):
    if not e.target.is_complete_lattice():
        raise NotCompleteLattice("%s target must be a complete lattice" % kind)
    if kind == "meet" and not is_meet_extension(e):
        raise PreservationViolation("map is not a meet-completion")
    if kind == "join" and not is_join_extension(e):
        raise PreservationViolation("map is not a join-completion")


def _adjoint(src, tgt, below, bound, side):
    """`_lift` of the base map `tgt` along the extension `src`, verified
    to extend it."""
    h, miss = _lift(src.map, tgt.map, below, bound)
    if miss is not None:
        raise PreservationViolation(
            "adjoint does not extend the %s base map" % side, miss
        )
    return h


def f_map(ex, ey):
    """The lower adjoint Y -> X determined by a meet-completion and a
    join-completion of the same base: each right element goes to the
    join of the left images of the base elements below it.  Commutation
    with the base maps is verified."""
    _require_completion(ex, "meet")
    _require_completion(ey, "join")
    return _adjoint(ey, ex, ey.target.cols, ex.target.rows, "left")


def g_map(ex, ey):
    """The upper adjoint X -> Y: `f_map` on the dual orders."""
    _require_completion(ex, "meet")
    _require_completion(ey, "join")
    return _adjoint(ex, ey, ex.target.rows, ey.target.cols, "right")


def adjoint_pair(ex, ey):
    """Both adjoints, verified to form a Galois connection."""
    f = f_map(ex, ey)
    g = g_map(ex, ey)
    if not check_galois_connection(f, g):
        raise PreservationViolation("computed maps are not adjoint")
    return f, g


def z_doubleprime(pol, ix, iy):
    """The right-left pairs read off through a pair of side completions:
    (y, x) is included when the lower adjoint sends the completed y
    below the completed x.  The completions must preserve all existing
    meets respectively joins of their sides."""
    if ix.base != pol.x or iy.base != pol.y:
        raise PreservationViolation("completions must extend the polarity sides")
    if _bounds_failure(ix.map.idx, pol.x.cols, ix.target.cols) is not None:
        raise PreservationViolation(
            "left completion must preserve all existing meets"
        )
    if _bounds_failure(iy.map.idx, pol.y.rows, iy.target.rows) is not None:
        raise PreservationViolation(
            "right completion must preserve all existing joins"
        )
    ex2 = pol.ex.compose(ix)
    ey2 = pol.ey.compose(iy)
    f, g = adjoint_pair(ex2, ey2)
    mx, my = ix.target, iy.target
    out = set()
    for y in pol.y.elements:
        for x in pol.x.elements:
            via_f = mx.leq(f(iy(y)), ix(x))
            via_g = my.leq(iy(y), g(ix(x)))
            if via_f != via_g:
                raise LawViolation(
                    "adjoint-readings", "the two adjoint readings must agree", (y, x)
                )
            if via_f:
                out.add((y, x))
    return frozenset(out)
