import random
import textwrap

import polab
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polab.delta1 import (
    Delta1Completion,
    Delta1Morphism,
    check_adjunction,
    compose_delta1,
    counit_iso,
    delta_on_morphisms,
    delta_on_objects,
    gamma_on_morphisms,
    gamma_on_objects,
    is_complete_polarity,
    mediate,
    unit,
    universal_property,
)
from polab.errors import ConditionOneFails, DomainMismatch, NotDelta1, NotGalois
from polab.fixtures import load
from polab.morphisms import PolarityMorphism, compose, structure_of
from polab.oracles import (
    leq,
    oracle_complete_homs,
    oracle_extensions_isomorphic,
    oracle_polarity_isos_over_base,
)
from polab.order import Extension, MonotoneMap, Poset, macneille
from polab.polarity import ExtensionPolarity, r_l
from polab.randgen import morphism_corpus, random_galois_polarity, random_poset

from conftest import (
    INDEX_SABOTAGE,
    chain,
    identity_polarity,
    mask_of,
    random_monotone,
    run_optimized,
    seeded_galois,
)


def seeded_posets(max_size=5):
    return st.builds(
        lambda seed, size: random_poset(random.Random(seed), size),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=max_size),
    )


class TestObjects:
    def test_gamma_needs_galois(self):
        with pytest.raises(NotGalois):
            gamma_on_objects(load("fix_b").polarities["G"])

    def test_dense_completion_gate(self):
        anti = Poset.antichain("pq")
        chain = Poset.from_pairs("0pq", [("0", "p"), ("0", "q")])
        with pytest.raises(NotDelta1):
            Delta1Completion(Extension(MonotoneMap(anti, chain, {"p": "p", "q": "q"})))

    @given(seeded_galois())
    @settings(deadline=None, max_examples=25)
    def test_round_trip_lands_on_a_complete_polarity(self, pol):
        image = delta_on_objects(gamma_on_objects(pol))
        assert is_complete_polarity(image)

    @given(seeded_posets())
    @settings(deadline=None, max_examples=40)
    def test_identity_polarity_generates_the_cut_completion(self, p):
        d = gamma_on_objects(identity_polarity(p))
        assert oracle_extensions_isomorphic(d.completion, macneille(p))


class TestUnit:
    @given(seeded_galois())
    @settings(deadline=None, max_examples=20)
    def test_unit_embeds(self, pol):
        assert unit(pol).is_embedding()

    @given(seeded_galois(max_base=3))
    @settings(deadline=None, max_examples=15)
    def test_unit_is_iso_after_one_round_trip(self, pol):
        image = delta_on_objects(gamma_on_objects(pol))
        eta = unit(image)
        assert eta.is_isomorphism()

    def test_certificate_matches_the_iso_search(self):
        """Seeded Galois polarities and their round-trip images, each of
        whose units passes the density certificate: where the target's
        sides have at most 8 elements, the search over all isomorphisms
        over the base finds the unit for a complete polarity and nothing
        for any other."""
        rng = random.Random(5)
        verdicts = {True: 0, False: 0}
        for _ in range(60):
            pol = random_galois_polarity(rng, rng.randint(1, 6))
            for p in (pol, delta_on_objects(gamma_on_objects(pol))):
                eta = unit(p)
                if max(len(eta.target.x), len(eta.target.y)) > 8:
                    continue
                complete = is_complete_polarity(p)
                isos = oracle_polarity_isos_over_base(p, eta.target)
                assert isos == ([eta] if complete else [])
                verdicts[complete] += 1
        assert min(verdicts.values()) >= 20

    def test_certified_under_optimize(self):
        """A unit that differs from the lift of its base values, or a lift
        that misses a base value, raises a typed violation naming the
        first such element, also when asserts are stripped."""
        done = run_optimized(
            OPTIMIZED_PRELUDE
            + textwrap.dedent(
                """
                lift = delta1._lift
                sabotages = (
                    # every element sent to the top, no base value missed
                    lambda src, tgt, below, bound: (
                        lift(src, tgt, [0] * len(below), bound)[0], None
                    ),
                    # the true lift, reported as missing the base element a
                    lambda src, tgt, below, bound: (
                        lift(src, tgt, below, bound)[0], "a"
                    ),
                )
                for sabotage in sabotages:
                    delta1._lift = sabotage
                    try:
                        delta1.unit(identity_polarity(Poset.from_pairs("ab", [("a", "b")])))
                    except LawViolation as err:
                        print(err.law, err.witness)
                sys.exit(3)
                """
            )
        )
        assert done.returncode == 3, done.stdout + done.stderr
        assert done.stdout.split("\n")[:2] == ["unit-unique a"] * 2

    def test_a_wrong_index_tuple_is_refused_under_optimize(self):
        """Once the structures are built, `unit` derives four maps from
        index tuples: hx, hy and the lift of each side.  A wrong tuple in
        each raises the certificate that carries it, also when asserts
        are stripped.  A tuple that fixes the base but is no embedding is
        refused by the morphism's `reflection` clause, and with that
        validation off by `unit-embeds`."""
        done = run_optimized(
            OPTIMIZED_PRELUDE
            + INDEX_SABOTAGE
            + textwrap.dedent(
                """
                from polab.morphisms import PolarityMorphism
                from polab.polarity import structure_of

                pol = identity_polarity(Poset.from_pairs("abc", [("a", "b"), ("b", "c")]))
                structure_of(delta1.delta_on_objects(delta1.gamma_on_objects(pol)))
                for call in (1, 2, 3, 4):
                    print(refused(lambda: delta1.unit(pol), call, lambda idx: [idx[0]] * len(idx)))
                # m, the meet of a and b, sent with c below it.
                base = Poset.from_pairs("abc", [("c", "a"), ("c", "b")])
                x = Poset.from_pairs("cmab", [("c", "m"), ("m", "a"), ("m", "b")])
                ex = Extension(MonotoneMap(base, x, {e: e for e in "abc"}))
                ey = Extension.identity(base)
                vee = ExtensionPolarity(base, ex, ey, r_l(ex, ey))
                merge = lambda idx: idx[:1] * 2 + idx[2:]
                structure_of(delta1.delta_on_objects(delta1.gamma_on_objects(vee)))
                print(refused(lambda: delta1.unit(vee), 1, merge))
                PolarityMorphism._validate = lambda self: None
                print(refused(lambda: delta1.unit(vee), 1, merge))
                sys.exit(3)
                """
            )
        )
        assert done.returncode == 3, done.stdout + done.stderr
        assert done.stdout.splitlines() == [
            "MorphismInvalid commute-left b",
            "MorphismInvalid commute-right b",
            "LawViolation unit-unique b",
            "LawViolation unit-unique b",
            "MorphismInvalid reflection (3, 1)",
            "LawViolation unit-embeds "
            "({'c': 1, 'm': 1, 'a': 7, 'b': 11}, {'a': 7, 'b': 11, 'c': 1})",
        ]


class TestCounit:
    @given(seeded_galois(max_base=3))
    @settings(deadline=None, max_examples=15)
    def test_counit_is_an_isomorphism(self, pol):
        d = gamma_on_objects(pol)
        assert counit_iso(d).is_isomorphism()


    def test_certified_under_optimize(self):
        """A counit that fails its isomorphism certificate raises a typed
        violation, also when asserts are stripped."""
        done = run_optimized(
            OPTIMIZED_PRELUDE
            + textwrap.dedent(
                """
                delta1.Delta1Morphism.is_isomorphism = lambda self: False
                d = delta1.gamma_on_objects(identity_polarity(Poset.from_pairs("ab", [("a", "b")])))
                try:
                    delta1.counit_iso(d)
                except LawViolation as err:
                    print(err.law)
                    sys.exit(3)
                """
            )
        )
        assert done.returncode == 3, done.stdout + done.stderr
        assert done.stdout.strip() == "counit-iso"

    def test_a_wrong_index_tuple_is_refused_under_optimize(self):
        """`counit_iso` derives the class values and their lift from index
        tuples.  A wrong tuple in either is refused by the square's own
        checks, a complete homomorphism that commutes with the base maps,
        before the isomorphism certificate: over a dense completion only
        the counit passes them.  Also when asserts are stripped."""
        done = run_optimized(
            OPTIMIZED_PRELUDE
            + INDEX_SABOTAGE
            + textwrap.dedent(
                """
                from polab.polarity import structure_of

                d = delta1.gamma_on_objects(identity_polarity(Poset.antichain("ab")))
                structure_of(delta1.delta_on_objects(d))
                delta1.gamma_on_objects(delta1.delta_on_objects(d))
                last = lambda idx: [idx[-1]] * len(idx)
                for call in (1, 2):
                    print(refused(lambda: delta1.counit_iso(d), call, last))
                sys.exit(3)
                """
            )
        )
        assert done.returncode == 3, done.stdout + done.stderr
        assert done.stdout.splitlines() == ["DomainMismatch None None"] * 2


class TestFunctorLaws:
    def test_checklist_on_a_small_corpus(self):
        rng = random.Random(21)
        pols = [random_galois_polarity(rng, rng.randint(1, 3)) for _ in range(4)]
        idents = [PolarityMorphism.identity(p) for p in pols]
        pairs = [(idents[0], idents[0])]
        check_adjunction(pols[:3], morphisms=idents[:2], composable=pairs)

    def test_a_wrong_functor_fails_naturality_under_optimize(self):
        """A lift that sends every square to the identity on its source
        completion keeps both identity laws but breaks the naturality
        square of a collapse: the checker raises a typed violation naming
        the law and the morphism, also when asserts are stripped."""
        done = run_optimized(
            OPTIMIZED_PRELUDE
            + textwrap.dedent(
                """
                from polab.randgen import collapse_morphism

                pol = identity_polarity(Poset.from_pairs("ab", [("a", "b")]))
                g = collapse_morphism(pol)
                delta1.gamma_on_morphisms = lambda m: delta1.Delta1Morphism.identity(
                    delta1.gamma_on_objects(m.source)
                )
                try:
                    delta1.check_adjunction([pol], morphisms=[g])
                except LawViolation as err:
                    print(err.law, err.witness is g)
                    sys.exit(3)
                """
            )
        )
        assert done.returncode == 3, done.stdout + done.stderr
        assert done.stdout.strip() == "naturality True"

    def test_square_composition_needs_shared_middle(self):
        p = identity_polarity(chain("ab"))
        q = identity_polarity(chain("uv"))
        dp, dq = gamma_on_objects(p), gamma_on_objects(q)
        with pytest.raises(DomainMismatch):
            compose_delta1(Delta1Morphism.identity(dp), Delta1Morphism.identity(dq))


class TestMediator:
    def test_identity_case_factors_uniquely(self):
        pol = identity_polarity(Poset.from_pairs("abc", [("a", "c"), ("b", "c")]))
        d = gamma_on_objects(pol)
        eta = unit(pol)
        rep = mediate(pol, d, eta)
        assert rep.factors and rep.unique

    def test_antichain_of_five_factors_uniquely(self):
        pol = identity_polarity(Poset.antichain("abcde"))
        d = gamma_on_objects(pol)
        rep = mediate(pol, d, unit(pol))
        assert rep.unique and rep.factors

    def test_uniqueness_matches_the_homomorphism_search(self):
        """Every morphism of a seeded corpus (identities, collapses,
        units and their composites), followed by the unit of its target:
        where the source lattice has at most 6 elements and the target
        lattice at most 8, the mediator is unique exactly when it is the
        only complete homomorphism taking the values the morphism forces
        on the dense image."""
        checked = 0
        for g in morphism_corpus(random.Random(64), count=40):
            d = gamma_on_objects(g.target)
            if len(gamma_on_objects(g.source).lattice) > 6 or len(d.lattice) > 8:
                continue
            h = compose(unit(g.target), g)
            rep = mediate(g.source, d, h)
            homs = oracle_complete_homs(
                rep.mediator.source.lattice, d.lattice, _forced(g.source, d, h)
            )
            assert rep.unique == (homs == [rep.mediator.g])
            assert rep.unique and rep.factors
            checked += 1
        assert checked >= 20

    def test_a_lift_other_than_the_mediator_is_not_unique(self, monkeypatch):
        """Sabotage: after `unit` has run, the lift `mediate` compares
        with the mediator, the one along the cut of the polarity's own
        quotient, sends everything to the top of the lattice, which no
        complete homomorphism does; `unique` must read False while the
        square still factors.  `counit_iso` lifts along the cut of the
        generated polarity and is left alone."""
        pol = identity_polarity(chain("ab"))
        d = gamma_on_objects(pol)
        eta = unit(pol)
        own = d.cut.map
        real = polab.delta1._lift

        def to_top(src, *rest):
            h, miss = real(src, *rest)
            if src != own:
                return h, miss
            top = dict.fromkeys(h.source.elements, h.target.elements[h.target.meet_index(0)])
            return MonotoneMap(h.source, h.target, top), miss

        monkeypatch.setattr(polab.delta1, "_lift", to_top)
        rep = mediate(pol, d, eta)
        assert rep.factors and not rep.unique

    def test_rejects_foreign_targets(self):
        pol = identity_polarity(chain("ab"))
        other = gamma_on_objects(identity_polarity(chain("uv")))
        with pytest.raises(DomainMismatch):
            mediate(pol, other, PolarityMorphism.identity(pol))


class TestUniversalProperty:
    def test_slice_polarity_mediates(self):
        pol = identity_polarity(Poset.from_pairs("abc", [("a", "c"), ("b", "c")]))
        assert pol.rel == r_l(pol.ex, pol.ey)
        f = macneille(pol.x).map
        g = _agreeing_map(pol, f)
        u = universal_property(pol, f, g)
        assert u.target == f.target

    def test_cross_order_failure_names_the_first_pair(self):
        """Pairs of maps agreeing on the base: into the cut completion of
        the left side, f and its agreeing join map; into a three-element
        chain, from random values v on the base, f at x the largest v(p)
        with ex(p) <= x and g at y the least v(p) with y <= ey(p), the
        pair most likely to break the cross order.  Whether the mediating
        map exists, and the first (y, x) whose classes are ordered while
        g(y) is not below f(x), x first in carrier order and then y, are
        those of the literal loop."""
        rng = random.Random(23)
        three = chain("012")
        verdicts = {True: 0, False: 0}
        for _ in range(60):
            pol = random_galois_polarity(rng, rng.randint(2, 4), keep_theta=0.9)
            f = macneille(pol.x).map
            pairs = [(f, _agreeing_map(pol, f))]
            for _ in range(3):
                v = random_monotone(rng, pol.base, three)
                pairs.append(_widest_pair(pol, v))
            for f, g in pairs:
                want = literal_cross_failure(pol, f, g)
                if want is None:
                    assert universal_property(pol, f, g).target == f.target
                else:
                    with pytest.raises(ConditionOneFails) as err:
                        universal_property(pol, f, g)
                    assert err.value.witness == want
                verdicts[want is None] += 1
        assert min(verdicts.values()) > 40

    def test_cross_order_failure_names_the_lowest_y(self):
        """One x, the top t of the antichain a, b, c, with two y below it,
        ab and ac, neither of whose images lies below the image of t: the
        witness names the first of them in carrier order."""
        base = Poset.from_pairs("abc", [])
        x = Poset.from_pairs("abct", [(e, "t") for e in "abc"])
        y = Poset.from_pairs(["a", "b", "c", "ab", "ac"], [(e, p) for p in ("ab", "ac") for e in p])
        ex, ey = (Extension(MonotoneMap(base, side, {e: e for e in "abc"})) for side in (x, y))
        pol = ExtensionPolarity(base, ex, ey, r_l(ex, ey))
        t = Poset.from_pairs(
            ["a", "b", "c", "u", "v1", "v2"],
            [(e, "u") for e in "abc"] + [("a", "v1"), ("b", "v1"), ("a", "v2"), ("c", "v2")],
        )
        f = MonotoneMap(x, t, {"a": "a", "b": "b", "c": "c", "t": "u"})
        g = MonotoneMap(y, t, {"a": "a", "b": "b", "c": "c", "ab": "v1", "ac": "v2"})
        with pytest.raises(ConditionOneFails) as err:
            universal_property(pol, f, g)
        assert err.value.witness == ("ab", "t") == literal_cross_failure(pol, f, g)

    def test_rejects_non_slice_relations(self):
        pol = load("fix_b").polarities["G"]
        ident = MonotoneMap.identity(pol.x)
        with pytest.raises(DomainMismatch):
            universal_property(pol, ident, ident)


# The prelude of the `python -O` scripts below: `delta1`, `LawViolation`
# and `Poset` imported and `identity_polarity` defined.
OPTIMIZED_PRELUDE = """
import sys
from polab import delta1
from polab.errors import LawViolation
from polab.order import Extension, MonotoneMap, Poset
from polab.polarity import ExtensionPolarity, r_l

def identity_polarity(base):
    e = Extension.identity(base)
    return ExtensionPolarity(base, e, e, r_l(e, e))

assert sys.flags.optimize
"""


def _forced(pol, d, h):
    """The values the morphism h forces on the cuts of the classes of
    the polarity's quotient, inside the completion `d`."""
    q = structure_of(pol).quotient
    m = gamma_on_objects(pol).cut
    forced = [h.hx(x) for x in h.source.x.elements] + [h.hy(y) for y in h.source.y.elements]
    values = MonotoneMap(q.poset, d.lattice, dict(zip(q.poset.elements, q.descend(forced))))
    return {m(z): values(z) for z in q.poset.elements}


def _agreeing_map(pol, f):
    target = f.target
    assignment = {}
    for y in pol.y.elements:
        below = [f(pol.ex(p)) for p in pol.base.elements if pol.y.leq(pol.ey(p), y)]
        assignment[y] = target.elements[target.join_index(mask_of(target, below))]
    return MonotoneMap(pol.y, target, assignment)


def _widest_pair(pol, v):
    """From the values v on the base, in a chain: x to the largest value
    of the base elements below it, y to the least of those above it, the
    chain's ends where there are none."""
    t, base = v.target, pol.base.elements
    low, high, rank = t.elements[0], t.elements[-1], t.index.__getitem__
    f = {
        x: max([v(p) for p in base if pol.x.leq(pol.ex(p), x)], default=low, key=rank)
        for x in pol.x.elements
    }
    g = {
        y: min([v(p) for p in base if pol.y.leq(y, pol.ey(p))], default=high, key=rank)
        for y in pol.y.elements
    }
    return MonotoneMap(pol.x, t, f), MonotoneMap(pol.y, t, g)


def literal_cross_failure(pol, f, g):
    """The first (y, x), x first in carrier order, whose classes are
    ordered in the quotient while g(y) is not below f(x), over `leq`."""
    s = structure_of(pol)
    for x in pol.x.elements:
        for y in pol.y.elements:
            if leq(s.quotient.poset, s.iota_y(y), s.iota_x(x)) and not leq(f.target, g(y), f(x)):
                return y, x
    return None
