import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import polab
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polab.delta1 import (
    HOM_GATE,
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
from polab.errors import DomainMismatch, NotDelta1, NotGalois
from polab.fixtures import identity_polarity, load
from polab.morphisms import PolarityMorphism, compose
from polab.order import (
    Extension,
    MonotoneMap,
    Poset,
    extensions_isomorphic,
    macneille,
)
from polab.polarity import r_l
from polab.randgen import random_galois_polarity, random_poset


def seeded_galois(max_base=4):
    return st.builds(
        lambda seed, size: random_galois_polarity(random.Random(seed), size),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=max_base),
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
            Delta1Completion(Extension.inclusion(anti, chain))

    @given(seeded_galois())
    @settings(deadline=None, max_examples=25)
    def test_round_trip_lands_on_a_complete_polarity(self, pol):
        image = delta_on_objects(gamma_on_objects(pol))
        assert is_complete_polarity(image)

    @given(seeded_posets())
    @settings(deadline=None, max_examples=40)
    def test_identity_polarity_generates_the_cut_completion(self, p):
        d = gamma_on_objects(identity_polarity(p))
        assert extensions_isomorphic(d.completion, macneille(p))


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


class TestCounit:
    @given(seeded_galois(max_base=3))
    @settings(deadline=None, max_examples=15)
    def test_counit_is_an_isomorphism(self, pol):
        d = gamma_on_objects(pol)
        assert counit_iso(d).is_isomorphism()


    def test_certified_under_optimize(self):
        """A counit that fails its isomorphism certificate raises a typed
        violation, also when asserts are stripped."""
        script = textwrap.dedent(
            """
            import sys
            from polab import delta1
            from polab.errors import LawViolation
            from polab.fixtures import identity_polarity
            from polab.order import Poset

            assert sys.flags.optimize
            delta1.Delta1Morphism.is_isomorphism = lambda self: False
            d = delta1.gamma_on_objects(identity_polarity(Poset.chain("ab")))
            try:
                delta1.counit_iso(d)
            except LawViolation as err:
                print(err.law)
                sys.exit(3)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(polab.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 3, done.stdout + done.stderr
        assert done.stdout.strip() == "counit-iso"


class TestFunctorLaws:
    def test_checklist_on_a_small_corpus(self):
        rng = random.Random(21)
        pols = [random_galois_polarity(rng, rng.randint(1, 3)) for _ in range(4)]
        idents = [PolarityMorphism.identity(p) for p in pols]
        pairs = [(idents[0], idents[0])]
        rep = check_adjunction(pols[:3], morphisms=idents[:2], composable=pairs)
        assert rep.ok()

    def test_square_composition_needs_shared_middle(self):
        p = identity_polarity(Poset.chain("ab"))
        q = identity_polarity(Poset.chain("uv"))
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

    def test_above_the_gate_the_dense_image_decides(self):
        pol = identity_polarity(Poset.antichain("abcde"))
        d = gamma_on_objects(pol)
        assert len(d.lattice) > HOM_GATE
        rep = mediate(pol, d, unit(pol))
        assert rep.exhaustive is False
        assert rep.unique is True and rep.factors

    def test_rejects_foreign_targets(self):
        pol = identity_polarity(Poset.chain("ab"))
        other = gamma_on_objects(identity_polarity(Poset.chain("uv")))
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

    def test_rejects_non_slice_relations(self):
        pol = load("fix_b").polarities["G"]
        ident = MonotoneMap.identity(pol.x)
        with pytest.raises(DomainMismatch):
            universal_property(pol, ident, ident)


def _agreeing_map(pol, f):
    target = f.target
    assignment = {}
    for y in pol.y.elements:
        below = [f(pol.ex(p)) for p in pol.base.elements if pol.y.leq(pol.ey(p), y)]
        assignment[y] = target.join(below)
    return MonotoneMap(pol.y, target, assignment)
