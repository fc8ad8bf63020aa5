import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polab.errors import CarrierTooLarge
from polab.fixtures import identity_polarity, load
from polab.oracles import (
    naive_c7,
    naive_c8,
    naive_coherence_level,
    naive_p4,
    naive_p5,
    naive_z_s,
    naive_z_t,
    oracle_enumerate_preorders,
    oracle_naive_condition_check,
    oracle_rigidity_failures,
)
from polab.order import Poset, tag_x, tag_y
from polab.polarity import (
    ExtensionPolarity,
    _rigidity_failures,
    check_coherence,
    coherence_level,
    enumerate_n_preorders,
    is_n_preorder,
    named_relation_sets,
    is_galois,
    r_hat_g,
    r_l,
    unique_3preorder,
)
from polab.randgen import (
    random_embedding,
    random_extension_polarity,
    random_galois_polarity,
    random_poset,
)


def seeded_polarities(max_base=3):
    return st.builds(
        lambda seed, size: random_extension_polarity(random.Random(seed), size),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=max_base),
    )


class TestConditionOracles:
    @given(seeded_polarities())
    @settings(deadline=None, max_examples=60)
    def test_levels_agree(self, pol):
        assert coherence_level(pol) == naive_coherence_level(pol)

    @given(seeded_polarities())
    @settings(deadline=None, max_examples=60)
    def test_per_condition_verdicts_agree(self, pol):
        rep = check_coherence(pol)
        for name in ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8"):
            ok, _ = oracle_naive_condition_check(pol, name)
            assert rep.ok(name) == ok, name

    def test_fixture_witnesses_match_failures(self):
        pol = load("fix_c").polarities["G"]
        ok, witness = oracle_naive_condition_check(pol, "C5")
        assert not ok and witness is not None

    def test_unknown_condition(self):
        pol = load("fix_a").polarities["G"]
        with pytest.raises(ValueError):
            oracle_naive_condition_check(pol, "C9")


class TestSubsetOracles:
    @given(seeded_polarities())
    @settings(deadline=None, max_examples=40)
    def test_forced_pair_sets_agree(self, pol):
        ns = named_relation_sets(pol)
        assert ns.z_s == naive_z_s(pol)
        assert ns.z_t == naive_z_t(pol)

    @given(seeded_polarities())
    @settings(deadline=None, max_examples=30)
    def test_subset_conditions_match_the_report(self, pol):
        rep = check_coherence(pol)
        assert rep.ok("C7") == naive_c7(pol)[0]
        assert rep.ok("C8") == naive_c8(pol)[0]

    def test_quotient_preservation_oracles(self):
        rng = random.Random(17)
        for _ in range(10):
            pol = random_galois_polarity(rng, rng.randint(1, 3))
            u = unique_3preorder(pol)
            assert naive_p4(pol, u)[0]
            assert naive_p5(pol, u)[0]

    def test_gate(self):
        big = identity_polarity(Poset.antichain("abcdefghijk"))
        with pytest.raises(CarrierTooLarge):
            naive_c7(big)


def _absent_pairs(u):
    n = len(u.carrier)
    return sum(1 for i in range(n) for j in range(n) if not u.rows[i] >> j & 1)


class TestRigidityOracle:
    """The mask test for rigidity against closing each absent pair in and
    grading the result from scratch, pair by pair."""

    def test_galois_polarities_are_rigid(self):
        rng = random.Random(0)
        absent = 0
        for k in range(150):
            pol = random_galois_polarity(rng, 1 + k % 5)
            u = unique_3preorder(pol)
            assert _rigidity_failures(u) == oracle_rigidity_failures(pol, u) == []
            absent += _absent_pairs(u)
        assert absent > 1000

    def test_slices_with_isolated_components(self):
        """Sides with isolated components keep the slice polarity 3-coherent
        but not Galois, so its canonical preorder, and the other grade-3
        preorders next to it, can take in more pairs."""
        rng = random.Random(0)
        checked = loose = 0
        for k in range(300):
            base = random_poset(rng, 1 + k % 4)
            ex = random_embedding(rng, base, junk=rng.randrange(3), prefix="x")
            ey = random_embedding(rng, base, junk=rng.randrange(3), prefix="y")
            pol = ExtensionPolarity(base, ex, ey, r_l(ex, ey))
            u = r_hat_g(pol).closed()
            grade3 = [u] if is_n_preorder(pol, u, 3).ok else []
            if len(u.carrier) <= 5:
                grade3 += list(enumerate_n_preorders(pol, 3))
            for v in grade3:
                fast = _rigidity_failures(v)
                assert fast == oracle_rigidity_failures(pol, v)
                checked += 1
                loose += len(fast)
        assert checked > 200 and loose > 100


class TestEnumerationOracle:
    @given(seeded_polarities(max_base=2))
    @settings(deadline=None, max_examples=30)
    def test_fast_enumeration_matches_the_oracle(self, pol):
        # five carrier elements leave at most 16 undetermined pairs
        assume(len(pol.x) + len(pol.y) <= 5)
        forced = [(tag_x(a), tag_x(b)) for a, b in pol.x.pairs()]
        forced += [(tag_y(a), tag_y(b)) for a, b in pol.y.pairs()]
        forced += [(tag_x(a), tag_y(b)) for a, b in pol.rel]
        forbidden = [
            (tag_x(a), tag_y(b))
            for a in pol.x.elements
            for b in pol.y.elements
            if (a, b) not in pol.rel
        ]
        every = oracle_enumerate_preorders(pol.carrier(), forced, forbidden)
        for n in range(4):
            want = sorted(u.rows for u in every if is_n_preorder(pol, u, n).ok)
            got = sorted(u.rows for u in enumerate_n_preorders(pol, n))
            assert got == want, n

    def test_counts_all_preorders_on_three_points(self):
        # 29 preorders on a 3-element set
        got = oracle_enumerate_preorders("abc", [], [])
        assert len(got) == 29

    def test_conflicting_constraints_give_nothing(self):
        got = oracle_enumerate_preorders("ab", [("a", "b")], [("a", "b")])
        assert got == []

    def test_gates(self):
        with pytest.raises(CarrierTooLarge):
            oracle_enumerate_preorders("abcdefg", [], [])
        with pytest.raises(CarrierTooLarge):
            oracle_enumerate_preorders("abcde", [], [])
