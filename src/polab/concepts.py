"""Concept lattices of order polarities and the maps into them.

The lattice of closed left-sets is built as the intersection closure of
the attribute extents (one per right element) together with the full
left carrier; closed sets are carried as bit-masks over the left poset
and used directly as lattice element ids.
"""

from __future__ import annotations

from .errors import LawViolation, NotCompleteLattice, PreservationViolation
from .order import (
    UnionPreorder,
    _bounds_failure,
    _common,
    _intersection_lattice,
    _lift,
    check_galois_connection,
    is_meet_extension,
    is_join_extension,
)


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


def concept_lattice(pol):
    """The concept lattice, read off the polarity's kept relation rows:
    the extent of the j-th right element is `ry[j]`, and that generated
    by the i-th left element the intersection of the extents of the
    right elements related to it."""
    rx, ry = pol._rows
    full = (1 << len(pol.x)) - 1
    lattice = _intersection_lattice(full, ry)
    xi_mask = {a: _common(ry, rx[i], full) for i, a in enumerate(pol.x.elements)}
    return ConceptLattice(pol, lattice, xi_mask, dict(zip(pol.y.elements, ry)))


def inclusion_preorder(pol):
    """The preorder on the tagged union read off from extent inclusion in
    the concept lattice: one element lies below another when its extent
    lies inside the other's.  On a Galois polarity it is the unique
    3-preorder; `oracles.prop_order_preorder` reads it off the relation
    pair by pair."""
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
    full = (1 << len(pol.y)) - 1
    unrelated = {a: full & ~r for a, r in zip(pol.x.elements, pol._rows[0])}
    return _embeds(pol.x, concept_lattice(pol).xi_mask, unrelated)


def upsilon_embedding(pol):
    """Whether the right canonical map embeds: y1 goes below y2 when every
    left element related to y1 is related to y2."""
    related = dict(zip(pol.y.elements, pol._rows[1]))
    return _embeds(pol.y, concept_lattice(pol).upsilon_mask, related)


def adjoint_pair(ex, ey):
    """The Galois connection between the targets of a meet-completion
    `ex` and a join-completion `ey` of one base: the lower adjoint Y -> X
    sends each right element to the join of the left images of the base
    elements below it, the upper adjoint X -> Y each left element to the
    meet of the right images of those above it.  Both are verified to
    extend the base maps and to be adjoint."""
    for e, kind, is_kind in (
        (ex, "meet", is_meet_extension),
        (ey, "join", is_join_extension),
    ):
        if not e.target.is_complete_lattice():
            raise NotCompleteLattice("%s target must be a complete lattice" % kind)
        if not is_kind(e):
            raise PreservationViolation("map is not a %s-completion" % kind)
    X, Y = ex.target, ey.target
    adjoints = []
    for src, tgt, below, bound, side in (
        (ey, ex, Y.cols, X.rows, "left"),
        (ex, ey, X.rows, Y.cols, "right"),
    ):
        h, miss = _lift(src.map, tgt.map, below, bound)
        if miss is not None:
            raise PreservationViolation(
                "adjoint does not extend the %s base map" % side, miss
            )
        adjoints.append(h)
    if not check_galois_connection(*adjoints):
        raise PreservationViolation("computed maps are not adjoint")
    return tuple(adjoints)


def z_doubleprime(pol, ix, iy):
    """The right-left pairs read off through a pair of side completions:
    (y, x) is included when the lower adjoint sends the completed y
    below the completed x, that is, by the connection, when the completed
    y lies below the upper adjoint's image of the completed x.  The
    completions must preserve all existing meets respectively joins of
    their sides."""
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
    f, _ = adjoint_pair(pol.ex.compose(ix), pol.ey.compose(iy))
    return frozenset(
        (y, x)
        for y in pol.y.elements
        for x in pol.x.elements
        if ix.target.leq(f(iy(y)), ix(x))
    )
