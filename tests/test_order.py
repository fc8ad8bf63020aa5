import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polab.errors import (
    AntisymmetryViolation,
    NotCutStable,
    NotEmbedding,
    NotMonotone,
    UnknownId,
)
from polab.order import (
    Extension,
    MonotoneMap,
    Poset,
    Quotient,
    UnionPreorder,
    compose,
    extensions_isomorphic,
    is_completion,
    is_cut_stable,
    is_delta1,
    is_dense,
    is_join_extension,
    is_meet_extension,
    is_order_embedding,
    macneille,
    macneille_lift,
    order_isomorphisms,
    tag_x,
    tag_y,
)
from polab.randgen import random_embedding

from conftest import dual_extension, seeded_posets


def downset_extension(p):
    """p into the lattice of its down-sets (as bit-masks), each element
    sent to its principal down-set."""
    n = len(p)
    masks = [
        m for m in range(1 << n)
        if all(p.cols[i] & ~m == 0 for i in range(n) if m >> i & 1)
    ]
    rows = [sum(1 << k for k, d in enumerate(masks) if c & ~d == 0) for c in masks]
    lattice = Poset(masks, rows)
    return Extension(MonotoneMap(p, lattice, {e: p.cols[i] for i, e in enumerate(p.elements)}))


def diamond():
    return Poset.from_pairs("bot l r top".split(), [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")])


class TestPoset:
    def test_chain_order(self):
        c = Poset.chain("abc")
        assert c.leq("a", "c") and not c.leq("c", "a")
        assert c.covers() == [("a", "b"), ("b", "c")]

    def test_antichain_has_no_comparabilities(self):
        a = Poset.antichain("xy")
        assert not a.leq("x", "y") and not a.leq("y", "x")

    def test_from_pairs_closes_transitively(self):
        p = Poset.from_pairs("abc", [("a", "b"), ("b", "c")])
        assert p.leq("a", "c")

    def test_cycle_is_rejected(self):
        with pytest.raises(AntisymmetryViolation):
            Poset.from_pairs("ab", [("a", "b"), ("b", "a")])

    def test_unknown_element(self):
        p = Poset.chain("ab")
        with pytest.raises(UnknownId):
            p.leq("a", "zz")

    def test_meet_and_join_on_diamond(self):
        d = diamond()
        assert d.meet(("l", "r")) == "bot"
        assert d.join(("l", "r")) == "top"
        assert d.top() == "top" and d.bottom() == "bot"
        assert d.is_complete_lattice()

    def test_missing_meet(self):
        a = Poset.antichain("xy")
        assert a.meet(("x", "y")) is None
        assert not a.is_complete_lattice()

    def test_dual_swaps_meet_and_join(self):
        d = diamond()
        assert d.dual().meet(("l", "r")) == "top"

    def test_restrict_keeps_induced_order(self):
        d = diamond()
        sub = d.restrict(["bot", "top", "l"])
        assert sub.leq("bot", "top") and sub.leq("l", "top")

    @given(seeded_posets())
    def test_covers_regenerate_the_order(self, p):
        assert Poset.from_pairs(p.elements, p.covers()) == p

    @given(seeded_posets())
    def test_dual_is_involutive(self, p):
        assert p.dual().dual() == p


class TestMonotoneMap:
    def test_rejects_non_monotone(self):
        c = Poset.chain("ab")
        a = Poset.antichain("ab")
        with pytest.raises(NotMonotone):
            MonotoneMap(c, a, {"a": "a", "b": "b"})

    def test_composition_and_identity(self):
        c = Poset.chain("ab")
        d = Poset.chain("abc")
        f = MonotoneMap(c, d, {"a": "a", "b": "c"})
        assert compose(MonotoneMap.identity(d), f) == f
        assert compose(f, MonotoneMap.identity(c)) == f

    def test_embedding_detection(self):
        c = Poset.chain("ab")
        a = Poset.antichain("ab")
        assert is_order_embedding(MonotoneMap(c, Poset.chain("abc"), {"a": "a", "b": "b"}))
        assert not is_order_embedding(MonotoneMap(a, Poset.chain("xy"), {"a": "x", "b": "y"}))


class TestMacneille:
    def test_extension_requires_embedding(self):
        a = Poset.antichain("ab")
        pt = Poset.antichain("o")
        with pytest.raises(NotEmbedding):
            Extension(MonotoneMap(a, pt, {"a": "o", "b": "o"}))

    @given(seeded_posets())
    @settings(deadline=None)
    def test_macneille_is_a_dense_completion(self, p):
        m = macneille(p)
        assert is_completion(m)
        assert is_meet_extension(m) and is_join_extension(m)
        assert is_dense(m)
        assert is_delta1(m)

    @given(seeded_posets(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(deadline=None)
    def test_join_extension_is_a_meet_extension_of_the_dual(self, p, seed):
        rng = random.Random(seed)
        down = downset_extension(p)
        for e in (random_embedding(rng, p, junk=rng.randrange(3)), down, dual_extension(down)):
            assert is_join_extension(e) == is_meet_extension(dual_extension(e))
            assert is_meet_extension(e) == is_join_extension(dual_extension(e))

    def test_downsets_of_an_antichain_are_only_a_join_extension(self):
        e = downset_extension(Poset.antichain("abc"))
        assert is_join_extension(e) and not is_meet_extension(e)

    def test_macneille_of_a_lattice_adds_nothing(self):
        d = diamond()
        m = macneille(d)
        assert len(m.target) == len(d)

    def test_macneille_of_antichain_adds_bounds(self):
        m = macneille(Poset.antichain("ab"))
        assert len(m.target) == 4

    def test_lift_of_identity_is_bijective(self):
        p = Poset.from_pairs("abc", [("a", "c"), ("b", "c")])
        lifted = macneille_lift(MonotoneMap.identity(p))
        assert is_order_embedding(lifted) and lifted.is_surjective()

    def test_cut_stability_gates_the_lift(self):
        # sending a 2-antichain onto one point of another is not cut
        # stable: the lift would have to move the top off the top
        a = Poset.antichain("ab")
        f = MonotoneMap(a, Poset.antichain("xy"), {"a": "y", "b": "y"})
        assert not is_cut_stable(f)
        with pytest.raises(NotCutStable):
            macneille_lift(f)


class TestIsomorphisms:
    def test_order_isomorphisms_of_a_chain(self):
        c = Poset.chain("ab")
        isos = list(order_isomorphisms(c, Poset.chain("xy")))
        assert len(isos) == 1 and isos[0]("a") == "x"

    def test_antichain_has_two_isos(self):
        a = Poset.antichain("ab")
        assert len(list(order_isomorphisms(a, Poset.antichain("xy")))) == 2

    def test_extensions_isomorphic_fixes_the_base(self):
        p = Poset.antichain("ab")
        e1 = macneille(p)
        e2 = macneille(p)
        assert extensions_isomorphic(e1, e2)


class TestUnionPreorder:
    def test_quotient_collapses_cycles(self):
        carrier = (tag_x("a"), tag_y("a"))
        u = UnionPreorder.from_pairs(
            carrier, [(carrier[0], carrier[1]), (carrier[1], carrier[0])]
        )
        q = Quotient(u.closed())
        assert len(q.poset) == 1

    def test_projection_is_monotone_onto_classes(self):
        carrier = (tag_x("a"), tag_x("b"), tag_y("a"))
        u = UnionPreorder.from_pairs(
            carrier,
            [
                (tag_x("a"), tag_y("a")),
                (tag_y("a"), tag_x("a")),
                (tag_x("a"), tag_x("b")),
            ],
        ).closed()
        q = Quotient(u)
        assert q.projection[tag_y("a")] == q.projection[tag_x("a")]
        assert q.poset.leq(q.projection[tag_x("a")], q.projection[tag_x("b")])
