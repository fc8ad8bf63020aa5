import random
import textwrap
from collections import Counter

import pytest

from polab.errors import DomainMismatch, MorphismInvalid, PartialInverseUndefined
from polab.fixtures import load
from polab.morphisms import (
    PolarityMorphism,
    compose,
    h_of,
    psi_of,
    roundtrip_holds,
    stable_roundtrip_holds,
    structure_of,
)
from polab.oracles import leq, oracle_cross_order, oracle_unreflected
from polab.order import MonotoneMap, Poset
from polab.polarity import is_galois
from polab.randgen import (
    collapse_morphism,
    collapse_target,
    morphism_corpus,
    random_galois_polarity,
)

from conftest import chain, identity_polarity, point_into_chain, random_monotone, run_optimized


def diamond():
    return identity_polarity(
        Poset.from_pairs("0abc1", [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    )


class TestValidation:
    def test_identity_is_valid(self):
        PolarityMorphism.identity(diamond())

    def test_equal_morphisms_hash_equal(self):
        # two parses of one document give equal, distinct polarities
        first, second = (
            PolarityMorphism.identity(load("fix_a").polarities["G"]) for _ in range(2)
        )
        assert first == second and first.source is not second.source
        assert len({first, second}) == 1

    def test_morphisms_between_other_polarities_differ(self):
        # one more related pair keeps the sides, so only the polarities differ
        rng = random.Random(11)
        while True:
            pol = random_galois_polarity(rng, 4)
            extra = [
                (a, b)
                for a in pol.x.elements
                for b in pol.y.elements
                if (a, b) not in pol.rel
                and is_galois(pol.with_relation(pol.rel | {(a, b)}))
            ]
            if extra:
                break
        other = pol.with_relation(pol.rel | {extra[0]})
        first, second = PolarityMorphism.identity(pol), PolarityMorphism.identity(other)
        assert (first.hx, first.hp, first.hy) == (second.hx, second.hp, second.hy)
        assert first != second and len({first, second}) == 2

    def test_component_domains_are_checked(self):
        pol = diamond()
        other = identity_polarity(chain("uv"))
        with pytest.raises(DomainMismatch):
            PolarityMorphism(
                pol,
                pol,
                MonotoneMap.identity(other.x),
                MonotoneMap.identity(pol.base),
                MonotoneMap.identity(pol.y),
            )

    def test_commutation_failure(self):
        pol = identity_polarity(chain("ab"))
        tgt = identity_polarity(chain("uv"))
        up = MonotoneMap(pol.base, tgt.base, {"a": "v", "b": "v"})
        down = MonotoneMap(pol.base, tgt.base, {"a": "u", "b": "u"})
        with pytest.raises(MorphismInvalid) as e:
            PolarityMorphism(pol, tgt, up, down, down)
        assert e.value.clause == "commute-left"
        with pytest.raises(MorphismInvalid) as e:
            PolarityMorphism(pol, tgt, down, down, up)
        assert e.value.clause == "commute-right"

    def test_reflection_failure(self):
        # collapsing a 2-antichain onto one point of a 2-antichain leaves
        # the absent pairs of the target with nothing reflecting them
        src = identity_polarity(Poset.antichain("p"))
        tgt = identity_polarity(Poset.antichain("uv"))
        to_u = MonotoneMap(src.base, tgt.base, {"p": "u"})
        with pytest.raises(MorphismInvalid) as e:
            PolarityMorphism(src, tgt, to_u, to_u, to_u)
        assert e.value.clause == "reflection"

    def test_reflection_witness_is_the_absent_pair(self):
        with pytest.raises(MorphismInvalid) as e:
            point_into_chain()
        assert e.value.clause == "reflection" and e.value.witness == ("b", "a")

    def test_a_wrong_index_tuple_is_refused_under_optimize(self):
        """A round trip derives the quotient map and then reads the three
        components back as index tuples (`_first_preimages`).  A wrong
        component tuple is not the morphism's own, so it is built and
        validated: it breaks a square, and `commute-left` or
        `commute-right` names its first base element, also when asserts
        are stripped."""
        script = textwrap.dedent(
            """
            import sys
            from conftest import chain, identity_polarity
            from polab import morphisms
            from polab.errors import PolabError
            from polab.morphisms import PolarityMorphism, roundtrip_holds

            assert sys.flags.optimize
            ident = PolarityMorphism.identity(identity_polarity(chain("abc")))
            last = lambda idx: idx[-1:] * len(idx)
            first = morphisms._first_preimages
            for side in ("left side", "right side", "base"):
                morphisms._first_preimages = lambda emb, values, label: (
                    last if label == side else list
                )(first(emb, values, label))
                try:
                    print("accepted" if roundtrip_holds(ident) else "unequal")
                except PolabError as err:
                    print(type(err).__name__, err.clause, err.witness)
            """
        )
        done = run_optimized(script)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.splitlines() == [
            "MorphismInvalid commute-left a",
            "MorphismInvalid commute-right a",
            "MorphismInvalid commute-left a",
        ]

    def test_certificates_raise_under_optimize(self):
        """The reflection certificate and the meet-preservation
        certificate of `z_doubleprime` on a 16-element side raise typed
        errors naming their witness, also when asserts are stripped."""
        script = textwrap.dedent(
            """
            import sys
            from conftest import identity_polarity, lossy_side, point_into_chain
            from polab.concepts import z_doubleprime
            from polab.errors import MorphismInvalid, PreservationViolation
            from polab.order import Extension, MonotoneMap, macneille

            assert sys.flags.optimize
            try:
                point_into_chain()
            except MorphismInvalid as err:
                print(err.clause, err.witness)
            p, t = lossy_side()
            pol = identity_polarity(p)
            ix = Extension(MonotoneMap(pol.x, t, {e: e for e in p.elements}))
            try:
                z_doubleprime(pol, ix, macneille(pol.y))
            except PreservationViolation as err:
                print(err)
            """
        )
        done = run_optimized(script)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.splitlines() == [
            "reflection ('b', 'a')",
            "left completion must preserve all existing meets",
        ]


def unchecked(source, target, hx, hy):
    """A triple as a morphism object, none of its clauses checked."""
    m = PolarityMorphism.__new__(PolarityMorphism)
    m.source, m.target, m.hx, m.hy = source, target, hx, hy
    m.src_struct, m.tgt_struct = structure_of(source), structure_of(target)
    m._related = related(target, hy)
    return m


def related(target, hy):
    """Per x' of the target, the mask of the y with x' R' hy(y), pair by
    pair: the masks `_validate` keeps for the reflection check and
    `is_embedding`."""
    ys = list(enumerate(hy.source.elements))
    return [sum(1 << i for i, y in ys if (a, hy(y)) in target.rel) for a in target.x.elements]


class TestCrossOrder:
    def test_matches_the_pair_loop(self):
        """On random monotone side maps between seeded Galois polarities
        the mask route names the same first (y, x) as the literal loop."""
        rng = random.Random(63)
        pols = [random_galois_polarity(rng, rng.randint(1, 4)) for _ in range(40)]
        verdicts = {True: 0, False: 0}
        while min(verdicts.values()) < 300:
            s, t = rng.choice(pols), rng.choice(pols)
            hx = random_monotone(rng, s.x, t.x)
            hy = random_monotone(rng, s.y, t.y)
            if hx is None or hy is None:
                continue
            m = unchecked(s, t, hx, hy)
            got = m._cross_order_failure()
            assert got == oracle_cross_order(m)
            verdicts[got is None] += 1

    def test_valid_morphisms_keep_the_cross_order(self):
        for m in morphism_corpus(random.Random(64), count=40):
            assert m._cross_order_failure() is None
            assert oracle_cross_order(m) is None

    def test_the_witness_is_raised(self):
        """A triple that keeps both squares but breaks the cross order is
        refused with the oracle's witness.  Seed 1747 is the first whose
        draw does that."""
        rng = random.Random(1747)
        s = random_galois_polarity(rng, rng.randint(1, 3))
        t = random_galois_polarity(rng, rng.randint(1, 3))
        hx = random_monotone(rng, s.x, t.x)
        hy = random_monotone(rng, s.y, t.y)
        hp = random_monotone(rng, s.base, t.base)
        with pytest.raises(MorphismInvalid) as err:
            PolarityMorphism(s, t, hx, hp, hy)
        assert err.value.clause == "cross-order"
        assert err.value.witness == oracle_cross_order(unchecked(s, t, hx, hy))
        assert err.value.witness == ("y3", "x0")


class TestReflection:
    def test_matches_the_quantifier_loops(self):
        """On random monotone side maps between seeded Galois polarities
        the mask route names the same first unreflected pair as the
        literal loops."""
        rng = random.Random(61)
        pols = [random_galois_polarity(rng, rng.randint(1, 3)) for _ in range(40)]
        verdicts = {True: 0, False: 0}
        while sum(verdicts.values()) < 800:
            s, t = rng.choice(pols), rng.choice(pols)
            hx = random_monotone(rng, s.x, t.x)
            hy = random_monotone(rng, s.y, t.y)
            if hx is None or hy is None:
                continue
            m = unchecked(s, t, hx, hy)
            got = m._unreflected()
            assert got == oracle_unreflected(m)
            verdicts[got is None] += 1
        assert min(verdicts.values()) > 100

    def test_valid_morphisms_reflect_every_pair(self):
        """Identities, collapses, units and their composites."""
        for m in morphism_corpus(random.Random(62), count=40):
            assert m._unreflected() is None
            assert oracle_unreflected(m) is None


class TestQuotientMaps:
    def test_identity_round_trip(self):
        m = PolarityMorphism.identity(diamond())
        assert roundtrip_holds(m)
        psi = psi_of(m)
        assert stable_roundtrip_holds(psi, m.source, m.target)

    def test_collapse_round_trip(self):
        m = collapse_morphism(diamond())
        assert m.target is collapse_target()
        assert roundtrip_holds(m)

    def test_an_own_triple_is_not_built_again(self, monkeypatch):
        """Recovered index tuples equal to the morphism's own are the
        morphism, which was validated when it was built: the round trip
        constructs no `PolarityMorphism`."""
        ms = [
            PolarityMorphism.identity(diamond()),
            collapse_morphism(diamond()),
            load("fix_j").build_morphism("m"),
        ]

        def built(self, *args, **kwargs):
            raise AssertionError("a PolarityMorphism was constructed")

        monkeypatch.setattr(PolarityMorphism, "__init__", built)
        assert all(roundtrip_holds(m) for m in ms)

    def test_embedding_equivalence(self):
        rng = random.Random(3)
        for m in morphism_corpus(rng, count=20):
            assert is_embedding_agrees(m)

    def test_fixture_morphism(self):
        doc = load("fix_j")
        m = doc.build_morphism("m")
        psi = psi_of(m)
        assert not m.is_isomorphism()
        assert psi.is_surjective()
        assert roundtrip_holds(m)

    def test_h_of_rejects_foreign_maps(self):
        pol = diamond()
        st = structure_of(pol)
        other = identity_polarity(chain("uv"))
        bad = MonotoneMap.identity(st.quotient.poset)
        with pytest.raises(DomainMismatch):
            h_of(bad, pol, other)


class TestIsEmbedding:
    def test_matches_the_pair_loop(self):
        """`is_embedding` against the literal loop over pairs: on the valid
        morphisms of the corpus (identities and units embed, most
        collapses do not), on identity triples into the same sides with
        another relation (only the relation clause decides), and on
        random monotone triples."""
        rng = random.Random(65)
        ms = morphism_corpus(rng, count=60, base_size=3)
        verdicts = Counter(("valid", m.is_embedding()) for m in ms)
        pols = [random_galois_polarity(rng, rng.randint(1, 3)) for _ in range(30)]
        triples = []
        for pol in pols:
            pairs = [(a, b) for a in pol.x.elements for b in pol.y.elements]
            other = pol.with_relation(p for p in pairs if rng.random() < 0.5)
            ids = [MonotoneMap.identity(side) for side in (pol.x, pol.base, pol.y)]
            triples += [(pol, other, *ids), (other, pol, *ids)]
        while len(triples) < 400:
            s, t = rng.choice(pols), rng.choice(pols)
            hs = [random_monotone(rng, getattr(s, k), getattr(t, k)) for k in ("x", "base", "y")]
            if None not in hs:
                triples.append((s, t, *hs))
        for s, t, hx, hp, hy in triples:
            m = PolarityMorphism.__new__(PolarityMorphism)
            m.source, m.target, m.hx, m.hp, m.hy = s, t, hx, hp, hy
            m._related = related(t, hy)
            verdicts["triple", m.is_embedding()] += 1
            ms.append(m)
        for m in ms:
            assert m.is_embedding() == literal_is_embedding(m)
        assert min(verdicts.values()) >= 20, verdicts


def literal_is_embedding(m):
    """Each component reflects the order, and x R y whenever hx(x) R'
    hy(y), pair by pair over `leq` and the relations' pairs."""
    for h in (m.hx, m.hp, m.hy):
        ps = h.source.elements
        if any(leq(h.target, h(p), h(q)) and not leq(h.source, p, q) for p in ps for q in ps):
            return False
    return all(
        (x, y) in m.source.rel
        for x in m.source.x.elements
        for y in m.source.y.elements
        if (m.hx(x), m.hy(y)) in m.target.rel
    )


def is_embedding_agrees(m):
    from polab.order import is_order_embedding

    return is_order_embedding(psi_of(m)) == m.is_embedding()


class TestComposition:
    def test_composition_matches_quotient_composition(self):
        pol = diamond()
        ident = PolarityMorphism.identity(pol)
        coll = collapse_morphism(pol)
        both = compose(coll, ident)
        assert both == coll

    def test_rejects_mismatched_middle(self):
        a = PolarityMorphism.identity(diamond())
        b = PolarityMorphism.identity(identity_polarity(chain("uv")))
        with pytest.raises(DomainMismatch):
            compose(b, a)

    def test_corpus_round_trips(self):
        rng = random.Random(9)
        for m in morphism_corpus(rng, count=25):
            assert roundtrip_holds(m)
            assert stable_roundtrip_holds(psi_of(m), m.source, m.target)
