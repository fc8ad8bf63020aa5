import random

import pytest

from polab.errors import DomainMismatch, MorphismInvalid, PartialInverseUndefined
from polab.fixtures import identity_polarity, load
from polab.morphisms import (
    PolarityMorphism,
    compose,
    h_of,
    psi_of,
    roundtrip_holds,
    stable_roundtrip_holds,
    structure_of,
)
from polab.order import MonotoneMap, Poset
from polab.randgen import collapse_morphism, morphism_corpus


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

    def test_component_domains_are_checked(self):
        pol = diamond()
        other = identity_polarity(Poset.chain("uv"))
        with pytest.raises(DomainMismatch):
            PolarityMorphism(
                pol,
                pol,
                MonotoneMap.identity(other.x),
                MonotoneMap.identity(pol.base),
                MonotoneMap.identity(pol.y),
            )

    def test_commutation_failure(self):
        pol = identity_polarity(Poset.chain("ab"))
        tgt = identity_polarity(Poset.chain("uv"))
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


class TestQuotientMaps:
    def test_identity_round_trip(self):
        m = PolarityMorphism.identity(diamond())
        assert roundtrip_holds(m)
        psi = psi_of(m)
        assert stable_roundtrip_holds(psi, m.source, m.target)

    def test_collapse_round_trip(self):
        m = collapse_morphism(diamond())
        assert roundtrip_holds(m)

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
        other = identity_polarity(Poset.chain("uv"))
        bad = MonotoneMap.identity(st.quotient.poset)
        with pytest.raises(DomainMismatch):
            h_of(bad, pol, other)


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
        b = PolarityMorphism.identity(identity_polarity(Poset.chain("uv")))
        with pytest.raises(DomainMismatch):
            compose(b, a)

    def test_corpus_round_trips(self):
        rng = random.Random(9)
        for m in morphism_corpus(rng, count=25):
            assert roundtrip_holds(m)
            assert stable_roundtrip_holds(psi_of(m), m.source, m.target)
