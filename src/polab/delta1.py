"""The two-way passage between Galois polarities and dense completions.

A Galois polarity generates a dense completion of its base by cut
completing the intermediate quotient; a dense completion generates a
complete Galois polarity from the meet and join closures of its image.
The two constructions are adjoint, and this module materialises the
unit, the counit, the functor laws and the mediating-map universal
property as finite checks.  Both object maps are kept like
`structure_of` (`order.kept`), and the generated completion keeps the
cut completion it was built from, so each polarity's cut completion is
built once.  Neither kept value refers to its argument.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .errors import ConditionOneFails, DomainMismatch, LawViolation, NotDelta1
from .order import (
    Extension,
    MonotoneMap,
    _complete_hom_failure,
    _expressible,
    _image_mask,
    _lift,
    _low_index,
    _mask_iter,
    compose as compose_maps,
    is_completion,
    is_delta1,
    is_order_embedding,
    kept,
    macneille,
    macneille_lift,
)
from .polarity import ExtensionPolarity, is_galois
from .morphisms import PolarityMorphism, compose as compose_morphisms, psi_of, structure_of


class Delta1Completion:
    """A completion of a poset whose image is doubly dense.

    `cut` is the cut completion of the intermediate quotient when
    `gamma_on_objects` built the completion through it, else None; it
    takes no part in equality."""

    __slots__ = ("base", "completion", "cut", "__weakref__")

    def __init__(self, completion, cut=None):
        if not is_delta1(completion):
            raise NotDelta1("target must be a complete lattice with a dense image")
        self.base = completion.base
        self.completion = completion
        self.cut = cut

    @property
    def lattice(self):
        return self.completion.target

    def __call__(self, p):
        return self.completion(p)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Delta1Completion) and self.completion == other.completion
        )

    def __hash__(self):
        return hash(self.completion)


class Delta1Morphism:
    """A commuting square between dense completions whose lattice leg is
    a complete homomorphism."""

    __slots__ = ("source", "target", "f", "g")

    def __init__(self, source, target, f, g):
        if f.source != source.base or f.target != target.base:
            raise DomainMismatch("base leg must map the bases")
        if g.source != source.lattice or g.target != target.lattice:
            raise DomainMismatch("lattice leg must map the lattices")
        if _complete_hom_failure(g) is not None:
            raise DomainMismatch("lattice leg must be a complete homomorphism")
        into, onto = source.completion.map.idx, target.completion.map.idx
        for p, i, j in zip(source.base.elements, into, f.idx):
            if g.idx[i] != onto[j]:
                raise DomainMismatch("square does not commute at %r" % (p,))
        self.source, self.target = source, target
        self.f, self.g = f, g

    def __eq__(self, other):
        return isinstance(other, Delta1Morphism) and self.f == other.f and self.g == other.g

    def is_isomorphism(self):
        """Both legs onto and order embeddings, so one-to-one."""
        return all(h.is_surjective() and is_order_embedding(h) for h in (self.f, self.g))

    @classmethod
    def identity(cls, d):
        return cls(d, d, MonotoneMap.identity(d.base), MonotoneMap.identity(d.lattice))


def compose_delta1(outer, inner):
    if inner.target != outer.source:
        raise DomainMismatch("squares do not share the middle completion")
    return Delta1Morphism(
        inner.source,
        outer.target,
        compose_maps(outer.f, inner.f),
        compose_maps(outer.g, inner.g),
    )


@kept
def gamma_on_objects(pol):
    """The dense completion generated by a Galois polarity: cut complete
    the intermediate quotient and precompose with the base map; the cut
    completion is kept as `cut`.  Raises `NotGalois` (from
    `structure_of`) for any other polarity.  Kept like `structure_of`,
    so each polarity's cut completion is built once."""
    struct = structure_of(pol)
    m = macneille(struct.quotient.poset)
    d = Extension(compose_maps(m.map, struct.gamma))
    return Delta1Completion(d, cut=m)


def gamma_on_morphisms(morphism):
    """Lift a polarity morphism to the generated completions through the
    cut completion of its quotient map."""
    lift = macneille_lift(psi_of(morphism))
    return Delta1Morphism(
        gamma_on_objects(morphism.source),
        gamma_on_objects(morphism.target),
        morphism.hp,
        lift,
    )


@kept
def delta_on_objects(d):
    """The complete Galois polarity generated by a dense completion:
    sides are the meet and join closures of the image, related by the
    lattice order.  Kept like `structure_of`."""
    lat, into = d.lattice, d.completion.map.idx
    image = _image_mask(into)
    x_mask = _expressible(lat, image)
    y_mask = _expressible(lat, image, join=True)
    x_elems, y_elems = lat.elements_of(x_mask), lat.elements_of(y_mask)
    x_side = lat.restrict(x_elems)
    y_side = lat.restrict(y_elems)
    # The image lies in both sides, each its own meets and joins.
    ex, ey = (
        Extension(MonotoneMap._of_idx(d.base, side, [side.index[lat.elements[i]] for i in into]))
        for side in (x_side, y_side)
    )
    rel = frozenset(
        (lat.elements[i], b)
        for i in _mask_iter(x_mask)
        for b in lat.elements_of(lat.rows[i] & y_mask)
    )
    pol = ExtensionPolarity(d.base, ex, ey, rel)
    if not is_galois(pol):
        raise LawViolation("galois", "a dense completion must generate a Galois polarity", rel)
    if not (is_completion(ex) and is_completion(ey)):
        raise LawViolation(
            "complete-sides", "generated sides must be complete", (x_elems, y_elems)
        )
    return pol


def delta_on_morphisms(m):
    """Restrict the lattice leg of a completion square to the generated
    sides; the triple is validated as a polarity morphism."""
    src = delta_on_objects(m.source)
    tgt = delta_on_objects(m.target)
    hx = MonotoneMap(src.x, tgt.x, {v: m.g(v) for v in src.x.elements})
    hy = MonotoneMap(src.y, tgt.y, {v: m.g(v) for v in src.y.elements})
    return PolarityMorphism(src, tgt, hx, m.f, hy)


def is_complete_polarity(pol):
    return is_completion(pol.ex) and is_completion(pol.ey)


def unit(pol):
    """The canonical embedding of a Galois polarity into the one its
    completion generates.

    Always a polarity embedding, and an isomorphism exactly when both
    sides are already complete.  The sides are meet- and join-dense over
    the base, and an isomorphism keeps meets and joins, so one over the
    identity base sends x to the meet of the images of the base elements
    above x and y to the join of those below y.  The unit is certified
    to be those two lifts at every size, which makes it the only
    isomorphism over the base when it is one.
    """
    d = gamma_on_objects(pol)
    image = delta_on_objects(d)
    struct = structure_of(pol)
    cuts, elements = d.cut.map.idx, d.lattice.elements
    hx, hy = (
        MonotoneMap._of_idx(side, into, [into.index[elements[cuts[k]]] for k in iota.idx])
        for side, into, iota in ((pol.x, image.x, struct.iota_x), (pol.y, image.y, struct.iota_y))
    )
    eta = PolarityMorphism(pol, image, hx, MonotoneMap.identity(pol.base), hy)
    if not eta.is_embedding():
        raise LawViolation("unit-embeds", "unit must embed", (hx.assignment, hy.assignment))
    complete = is_complete_polarity(pol)
    if eta.is_isomorphism() != complete:
        raise LawViolation(
            "unit-iso",
            "unit is an isomorphism exactly for complete polarities",
            complete,
        )
    lifts = (
        (hx, _lift(pol.ex.map, image.ex.map)),
        (hy, _lift(pol.ey.map, image.ey.map, join=True)),
    )
    for h, (lifted, miss) in lifts:
        differs = [e for e, i, j in zip(h.source.elements, h.idx, lifted.idx) if i != j]
        if miss is not None or differs:
            raise LawViolation(
                "unit-unique",
                "unit must be fixed by its base values",
                differs[0] if differs else miss,
            )
    return eta


def counit_iso(d):
    """The isomorphism from the completion generated by the generated
    polarity back onto the original lattice: a cut goes to the join of
    the values sitting below it."""
    pol = delta_on_objects(d)
    back = gamma_on_objects(pol)
    q = structure_of(pol).quotient
    m = back.cut
    # The members of a class are lattice values, and they must coincide.
    at = d.lattice.index
    value = MonotoneMap._of_idx(
        q.poset, d.lattice, q.descend([at[e] for e in pol.x.elements + pol.y.elements])
    )
    # A lift along an order embedding always extends the lifted map.
    t, _ = _lift(m.map, value, join=True)
    tau = Delta1Morphism(back, d, MonotoneMap.identity(d.base), t)
    if not tau.is_isomorphism():
        raise LawViolation("counit-iso", "counit must be an isomorphism", t.assignment)
    return tau


MediatorReport = namedtuple("MediatorReport", "mediator factors unique")


def mediate(pol, d, h):
    """For a polarity morphism h from a Galois polarity into the polarity
    a completion generates, the factoring completion square through the
    unit, with a uniqueness check.  A complete homomorphism is fixed by
    its values on the dense image, since every cut is the join of the
    image elements below it: the mediator is unique when its lattice leg
    is the lift of the values h forces there, at every size."""
    if h.source is not pol and h.source != pol:
        raise DomainMismatch("morphism must start at the polarity")
    target_pol = delta_on_objects(d)
    if h.target != target_pol:
        raise DomainMismatch("morphism must land in the generated polarity")
    tau = counit_iso(d)
    mediator = compose_delta1(tau, gamma_on_morphisms(h))
    eta = unit(pol)
    back = delta_on_morphisms(mediator)
    factors = compose_morphisms(back, eta) == h
    # h fixes the mediator on the cut of every class, the base cuts among
    # them, and so on the whole dense image.
    q = structure_of(pol).quotient
    m = gamma_on_objects(pol).cut
    at, sides = d.lattice.index, (target_pol.x.elements, target_pol.y.elements)
    forced = [at[side[i]] for f, side in zip((h.hx, h.hy), sides) for i in f.idx]
    values = MonotoneMap._of_idx(q.poset, d.lattice, q.descend(forced))
    lifted, _ = _lift(m.map, values, join=True)
    return MediatorReport(mediator=mediator, factors=factors, unique=lifted == mediator.g)


def check_adjunction(polarities, morphisms=(), composable=()):
    """Finite evidence for the adjunction: units and counits on the given
    polarities (each certifies itself), the identity laws of both
    functors there, naturality squares on the given morphisms, and the
    composition laws on the composable pairs, each pair (outer, inner).
    The first failed square raises `LawViolation` naming its law, with
    the polarity or morphism as witness.  Each unit and each lift is
    built once per distinct polarity or morphism of the call."""
    unit_of = functools.cache(unit)
    lift = functools.cache(gamma_on_morphisms)
    for pol in polarities:
        unit_of(pol)
        d = gamma_on_objects(pol)
        counit_iso(d)
        ident = Delta1Morphism.identity(d)
        if lift(PolarityMorphism.identity(pol)) != ident:
            raise LawViolation("gamma-identity", "identity lifts to another", pol)
        if delta_on_morphisms(ident) != PolarityMorphism.identity(delta_on_objects(d)):
            raise LawViolation("delta-identity", "identity restricts to another", pol)

    for g in morphisms:
        down = delta_on_morphisms(lift(g))
        lhs = compose_morphisms(down, unit_of(g.source))
        if lhs != compose_morphisms(unit_of(g.target), g):
            raise LawViolation("naturality", "unit square does not commute", g)

    for pair in composable:
        lifts = tuple(map(lift, pair))
        sq = compose_delta1(*lifts)
        if lift(compose_morphisms(*pair)) != sq:
            raise LawViolation("gamma-composition", "lift of a composite differs", pair)
        parts = compose_morphisms(*map(delta_on_morphisms, lifts))
        if delta_on_morphisms(sq) != parts:
            raise LawViolation("delta-composition", "restriction differs", pair)


def universal_property(pol, f, g):
    """For a polarity whose relation is the slice relation: two maps into
    a common poset agreeing on the base factor uniquely through the
    intermediate quotient exactly when the cross order is respected: per
    x, each y whose class lies below that of x has g(y) below f(x)."""
    if pol._mask != pol._frame.slice_mask():
        raise DomainMismatch("relation must be the slice relation")
    if f.source != pol.x or g.source != pol.y or f.target != g.target:
        raise DomainMismatch("maps must leave the sides into a common poset")
    fi, gi = f.idx, g.idx
    if any(fi[i] != gi[j] for i, j in zip(pol.ex.map.idx, pol.ey.map.idx)):
        raise DomainMismatch("maps must agree on the base image")
    struct = structure_of(pol)
    q, t = struct.quotient.poset, f.target
    below_q, below_t = struct.iota_y.pre_down, g.pre_down
    for x, a, b in zip(pol.x.elements, struct.iota_x.idx, fi):
        bad = below_q[a] & ~below_t[b]
        if bad:
            raise ConditionOneFails("cross order not respected", (pol.y.elements[_low_index(bad)], x))
    u = MonotoneMap._of_idx(q, t, struct.quotient.descend(fi + gi))
    for h, iota in ((f, struct.iota_x), (g, struct.iota_y)):
        for e, i, k in zip(h.source.elements, iota.idx, h.idx):
            if u.idx[i] != k:
                raise LawViolation("commute", "mediating map must extend both maps", e)
    return u
