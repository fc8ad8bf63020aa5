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
    _inclusion,
    _intersection_lattice,
    _lift,
    _low_index,
    _mask_iter,
    _transpose,
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
    """Extent inclusion in the concept lattice as a preorder on the frame's
    carrier: one element lies below another when its extent lies inside
    the other's.  On a Galois polarity it is the unique 3-preorder;
    `oracles.prop_order_preorder` reads it off the relation pair by pair."""
    lat = concept_lattice(pol)
    extents = [lat.xi_mask[a] for a in pol.x.elements] + list(lat.upsilon_mask.values())
    return UnionPreorder(pol.carrier(), _inclusion(extents)[0], pol._frame.index)


def _embeds(side, images, pointwise):
    """Whether a canonical map embeds the poset `side`: s_i <= s_j exactly
    when `pointwise[i]` lies inside `pointwise[j]`, masks read off the
    relation.  The rows `images` of the order of the lattice images, bit j
    of row i set when the image of s_i lies below that of s_j, must be the
    same; the first that differs and its lowest column are the witness."""
    below = _inclusion(pointwise)[0]
    for i, (a, b) in enumerate(zip(below, images)):
        if a != b:
            raise LawViolation(
                "embedding-routes",
                "pointwise embedding test disagrees with lattice",
                (side.elements[i], side.elements[_low_index(a ^ b)]),
            )
    return below == list(side.rows)


def xi_embedding(pol):
    """Whether the left canonical map embeds: x1 goes below x2 when every
    right element related to x2 is related to x1, that is, when the right
    elements unrelated to x1 are unrelated to x2."""
    xi, full = concept_lattice(pol).xi_mask, (1 << len(pol.y)) - 1
    images = _inclusion([xi[a] for a in pol.x.elements])[0]
    return _embeds(pol.x, images, [full & ~r for r in pol._rows[0]])


def upsilon_embedding(pol):
    """Whether the right canonical map embeds: y1 goes below y2 when every
    left element related to y1 is related to y2.  The images are ordered
    as the lattice's poset orders them."""
    lat = concept_lattice(pol)
    at = [lat.poset.index[lat.upsilon_mask[b]] for b in pol.y.elements]
    above = _transpose([lat.poset.cols[t] for t in at], len(lat.poset))
    return _embeds(pol.y, [above[t] for t in at], pol._rows[1])


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
    adjoints = []
    for src, tgt, join, side in ((ey, ex, True, "left"), (ex, ey, False, "right")):
        h, miss = _lift(src.map, tgt.map, join)
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
    if _bounds_failure(ix.map) is not None:
        raise PreservationViolation(
            "left completion must preserve all existing meets"
        )
    if _bounds_failure(iy.map, join=True) is not None:
        raise PreservationViolation(
            "right completion must preserve all existing joins"
        )
    f, _ = adjoint_pair(pol.ex.compose(ix), pol.ey.compose(iy))
    above = ix.map.pre_up
    return frozenset(
        (y, pol.x.elements[i])
        for y, j in zip(pol.y.elements, iy.map.idx)
        for i in _mask_iter(above[f.idx[j]])
    )
