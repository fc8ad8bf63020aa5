"""The two-way passage between Galois polarities and dense completions.

A Galois polarity generates a dense completion of its base by cut
completing the intermediate quotient; a dense completion generates a
complete Galois polarity from the meet and join closures of its image.
The two constructions are adjoint, and this module materialises the
unit, the counit, the functor laws and the mediating-map universal
property as finite checks.  Both object maps are memoised like
`structure_of`, and the generated completion keeps the cut completion
it was built from, so each polarity's cut completion is built once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import (
    CarrierTooLarge,
    ConditionOneFails,
    DomainMismatch,
    LawViolation,
    NotDelta1,
)
from .order import (
    Extension,
    MonotoneMap,
    _complete_hom_failure,
    _expressible,
    _image_mask,
    _lift,
    _mask_iter,
    compose as compose_maps,
    is_completion,
    is_delta1,
    is_order_embedding,
    macneille,
    macneille_lift,
    order_isomorphisms,
)
from .polarity import STRUCTURE_CACHE_SIZE, ExtensionPolarity, is_galois, r_l
from .morphisms import PolarityMorphism, psi_of, structure_of

# Side size up to which `unit` proves itself the only isomorphism over the base.
UNIQUE_GATE = 8
# Source lattice size up to which `mediate` searches all complete homomorphisms.
HOM_GATE = 6


class Delta1Completion:
    """A completion of a poset whose image is doubly dense.

    `cut` is the cut completion of the intermediate quotient when
    `gamma_on_objects` built the completion through it, else None; it
    takes no part in equality."""

    __slots__ = ("base", "completion", "cut")

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
        return (
            isinstance(other, Delta1Completion)
            and self.completion == other.completion
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
        for p in source.base.elements:
            if g(source(p)) != target(f(p)):
                raise DomainMismatch("square does not commute at %r" % (p,))
        self.source, self.target = source, target
        self.f, self.g = f, g

    def __eq__(self, other):
        return (
            isinstance(other, Delta1Morphism)
            and self.f == other.f
            and self.g == other.g
        )

    def is_isomorphism(self):
        return (
            self.f.is_injective()
            and self.f.is_surjective()
            and is_order_embedding(self.f)
            and self.g.is_injective()
            and self.g.is_surjective()
            and is_order_embedding(self.g)
        )

    @classmethod
    def identity(cls, d):
        return cls(
            d, d, MonotoneMap.identity(d.base), MonotoneMap.identity(d.lattice)
        )


def compose_delta1(outer, inner):
    if inner.target != outer.source:
        raise DomainMismatch("squares do not share the middle completion")
    return Delta1Morphism(
        inner.source,
        outer.target,
        compose_maps(outer.f, inner.f),
        compose_maps(outer.g, inner.g),
    )


@functools.lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def gamma_on_objects(pol):
    """The dense completion generated by a Galois polarity: cut complete
    the intermediate quotient and precompose with the base map; the cut
    completion is kept as `cut`.  Raises `NotGalois` (from
    `structure_of`) for any other polarity.  Memoised like
    `structure_of`, so each polarity's cut completion is built once."""
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


@functools.lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def delta_on_objects(d):
    """The complete Galois polarity generated by a dense completion:
    sides are the meet and join closures of the image, related by the
    lattice order.  Memoised like `structure_of`."""
    lat = d.lattice
    image = _image_mask(d.completion)
    x_mask = _expressible(lat.rows, lat.cols, image)
    y_mask = _expressible(lat.cols, lat.rows, image)
    x_elems, y_elems = lat.elements_of(x_mask), lat.elements_of(y_mask)
    x_side = lat.restrict(x_elems)
    y_side = lat.restrict(y_elems)
    ex = Extension(MonotoneMap(d.base, x_side, {p: d(p) for p in d.base.elements}))
    ey = Extension(MonotoneMap(d.base, y_side, {p: d(p) for p in d.base.elements}))
    rel = frozenset(
        (lat.elements[i], b)
        for i in _mask_iter(x_mask)
        for b in lat.elements_of(lat.rows[i] & y_mask)
    )
    pol = ExtensionPolarity(d.base, ex, ey, rel)
    if not is_galois(pol):
        raise LawViolation(
            "galois", "a dense completion must generate a Galois polarity", rel
        )
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


def _polarity_isos_over_base(src, tgt):
    """All polarity isomorphisms src -> tgt whose base component is the
    identity."""
    forced_x = {src.ex(p): tgt.ex(p) for p in src.base.elements}
    forced_y = {src.ey(p): tgt.ey(p) for p in src.base.elements}
    out = []
    for gx in order_isomorphisms(src.x, tgt.x, forced=forced_x):
        for gy in order_isomorphisms(src.y, tgt.y, forced=forced_y):
            rel_ok = all(
                ((gx(a), gy(b)) in tgt.rel) == ((a, b) in src.rel)
                for a in src.x.elements
                for b in src.y.elements
            )
            if rel_ok:
                out.append(
                    PolarityMorphism(
                        src, tgt, gx, MonotoneMap.identity(src.base), gy
                    )
                )
    return out


def unit(pol):
    """The canonical embedding of a Galois polarity into the one its
    completion generates.

    Always a polarity embedding; an isomorphism exactly when both sides
    are already complete, and then the only isomorphism over the
    identity base (checked exhaustively while both sides have at most
    `UNIQUE_GATE` elements).
    """
    d = gamma_on_objects(pol)
    image = delta_on_objects(d)
    struct = structure_of(pol)
    m = d.cut
    hx = MonotoneMap(
        pol.x, image.x, {x: m(struct.iota_x(x)) for x in pol.x.elements}
    )
    hy = MonotoneMap(
        pol.y, image.y, {y: m(struct.iota_y(y)) for y in pol.y.elements}
    )
    eta = PolarityMorphism(
        pol, image, hx, MonotoneMap.identity(pol.base), hy
    )
    if not eta.is_embedding():
        raise LawViolation(
            "unit-embeds", "unit must embed", (hx.assignment, hy.assignment)
        )
    complete = is_complete_polarity(pol)
    if eta.is_isomorphism() != complete:
        raise LawViolation(
            "unit-iso",
            "unit is an isomorphism exactly for complete polarities",
            complete,
        )
    if complete and len(image.x) <= UNIQUE_GATE and len(image.y) <= UNIQUE_GATE:
        isos = _polarity_isos_over_base(pol, image)
        if isos != [eta]:
            raise LawViolation(
                "unit-unique",
                "unit must be the only isomorphism over the base",
                len(isos),
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
    value = MonotoneMap(q.poset, d.lattice, q.descend(_same, _same))
    # A lift along an order embedding always extends the lifted map.
    t, _ = _lift(m.map, value, m.target.cols, d.lattice.rows)
    tau = Delta1Morphism(back, d, MonotoneMap.identity(d.base), t)
    if not tau.is_isomorphism():
        raise LawViolation("counit-iso", "counit must be an isomorphism", t.assignment)
    return tau


def _same(v):
    return v


def _complete_homs(src, tgt, forced):
    """All complete homomorphisms src -> tgt agreeing with `forced`,
    by backtracking over a linear extension with monotone pruning."""
    if len(src) > HOM_GATE or len(tgt) > HOM_GATE + 2:
        raise CarrierTooLarge("lattice too large for homomorphism search")
    order = sorted(src.elements, key=lambda e: bin(src.cols[src.index[e]]).count("1"))
    out = []

    def extend(k, partial):
        if k == len(order):
            g = MonotoneMap(src, tgt, dict(partial))
            if _complete_hom_failure(g) is None:
                out.append(g)
            return
        e = order[k]
        choices = [forced[e]] if e in forced else list(tgt.elements)
        for v in choices:
            ok = True
            for prev, pv in partial.items():
                if src.leq(prev, e) and not tgt.leq(pv, v):
                    ok = False
                    break
                if src.leq(e, prev) and not tgt.leq(v, pv):
                    ok = False
                    break
            if ok:
                partial[e] = v
                extend(k + 1, partial)
                del partial[e]

    extend(0, {})
    return out


@dataclass
class MediatorReport:
    mediator: Delta1Morphism
    factors: bool
    unique: bool
    exhaustive: bool


def mediate(pol, d, h):
    """For a polarity morphism h from a Galois polarity into the polarity
    a completion generates, the factoring completion square through the
    unit, with a uniqueness check (exhaustive under the gate, else via
    the forced values on the dense image)."""
    if h.source is not pol and h.source != pol:
        raise DomainMismatch("morphism must start at the polarity")
    target_pol = delta_on_objects(d)
    if h.target != target_pol:
        raise DomainMismatch("morphism must land in the generated polarity")
    tau = counit_iso(d)
    mediator = compose_delta1(tau, gamma_on_morphisms(h))
    eta = unit(pol)
    back = delta_on_morphisms(mediator)
    from .morphisms import compose as compose_morphisms

    factors = compose_morphisms(back, eta) == h
    # h fixes the mediator on the cut of every class, the base cuts among
    # them, and so on the whole dense image.
    q = structure_of(pol).quotient
    m = gamma_on_objects(pol).cut
    values = MonotoneMap(q.poset, d.lattice, q.descend(h.hx, h.hy))
    forced = {m(z): values(z) for z in q.poset.elements}
    try:
        candidates = _complete_homs(mediator.source.lattice, d.lattice, forced)
        unique = candidates == [mediator.g]
        exhaustive = True
    except CarrierTooLarge:
        # A complete homomorphism is fixed by its values on the dense
        # image: every cut is the join of the image elements below it.
        lifted, _ = _lift(m.map, values, m.target.cols, d.lattice.rows)
        unique = lifted == mediator.g
        exhaustive = False
    return MediatorReport(
        mediator=mediator, factors=factors, unique=unique, exhaustive=exhaustive
    )


@dataclass
class AdjunctionChecklist:
    unit_embeds: bool
    naturality: bool
    gamma_identity: bool
    delta_identity: bool
    gamma_composition: bool
    delta_composition: bool
    roundtrips: bool

    def ok(self):
        return all(
            (
                self.unit_embeds,
                self.naturality,
                self.gamma_identity,
                self.delta_identity,
                self.gamma_composition,
                self.delta_composition,
                self.roundtrips,
            )
        )


def check_adjunction(polarities, morphisms=(), composable=()):
    """Finite evidence for the adjunction: unit embeddings and round
    trips on the given polarities, naturality squares on the given
    morphisms, and functor laws on identities and composable pairs."""
    from .morphisms import compose as compose_morphisms

    unit_embeds = True
    roundtrips = True
    for pol in polarities:
        eta = unit(pol)
        if not eta.is_embedding():
            unit_embeds = False
        d = gamma_on_objects(pol)
        if not counit_iso(d).is_isomorphism():
            roundtrips = False
        if is_complete_polarity(pol) and not eta.is_isomorphism():
            roundtrips = False

    naturality = True
    for g in morphisms:
        lhs = compose_morphisms(
            delta_on_morphisms(gamma_on_morphisms(g)), unit(g.source)
        )
        rhs = compose_morphisms(unit(g.target), g)
        if lhs != rhs:
            naturality = False

    gamma_identity = True
    delta_identity = True
    for pol in polarities:
        ident = PolarityMorphism.identity(pol)
        d = gamma_on_objects(pol)
        if gamma_on_morphisms(ident) != Delta1Morphism.identity(d):
            gamma_identity = False
        if delta_on_morphisms(Delta1Morphism.identity(d)) != (
            PolarityMorphism.identity(delta_on_objects(d))
        ):
            delta_identity = False

    gamma_composition = True
    delta_composition = True
    for outer, inner in composable:
        composed = compose_morphisms(outer, inner)
        if gamma_on_morphisms(composed) != compose_delta1(
            gamma_on_morphisms(outer), gamma_on_morphisms(inner)
        ):
            gamma_composition = False
        sq = compose_delta1(gamma_on_morphisms(outer), gamma_on_morphisms(inner))
        if delta_on_morphisms(sq) != compose_morphisms(
            delta_on_morphisms(gamma_on_morphisms(outer)),
            delta_on_morphisms(gamma_on_morphisms(inner)),
        ):
            delta_composition = False

    return AdjunctionChecklist(
        unit_embeds=unit_embeds,
        naturality=naturality,
        gamma_identity=gamma_identity,
        delta_identity=delta_identity,
        gamma_composition=gamma_composition,
        delta_composition=delta_composition,
        roundtrips=roundtrips,
    )


def universal_property(pol, f, g):
    """For a polarity whose relation is the slice relation: two maps into
    a common poset agreeing on the base factor uniquely through the
    intermediate quotient exactly when the cross order is respected."""
    if pol.rel != r_l(pol.ex, pol.ey):
        raise DomainMismatch("relation must be the slice relation")
    if f.source != pol.x or g.source != pol.y or f.target != g.target:
        raise DomainMismatch("maps must leave the sides into a common poset")
    for p in pol.base.elements:
        if f(pol.ex(p)) != g(pol.ey(p)):
            raise DomainMismatch("maps must agree on the base image")
    struct = structure_of(pol)
    q = struct.quotient.poset
    for x in pol.x.elements:
        for y in pol.y.elements:
            if q.leq(struct.iota_y(y), struct.iota_x(x)) and not f.target.leq(
                g(y), f(x)
            ):
                raise ConditionOneFails(
                    "cross order not respected", (y, x)
                )
    u = MonotoneMap(q, f.target, struct.quotient.descend(f, g))
    for h, iota in ((f, struct.iota_x), (g, struct.iota_y)):
        for e in h.source.elements:
            if u(iota(e)) != h(e):
                raise LawViolation(
                    "commute", "mediating map must extend both maps", e
                )
    return u
