import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polab.errors import CarrierTooLarge, NotGalois
from polab.fixtures import CATALOGUE, identity_polarity, load
from polab.order import (
    Poset,
    UnionPreorder,
    is_join_extension,
    is_meet_extension,
    tag_x,
    tag_y,
)
from polab.polarity import (
    CANONICAL_BUILDERS,
    check_coherence,
    coherence_level,
    enumerate_n_preorders,
    galois_via_S1S2,
    is_entangled,
    is_galois,
    is_n_preorder,
    intermediate_structure,
    named_relation_sets,
    r_l,
    r_zero,
    unique_3preorder,
)
from polab.randgen import random_extension_polarity, random_galois_polarity

from conftest import dual_polarity


def seeded_polarities(max_base=3):
    return st.builds(
        lambda seed, size: random_extension_polarity(random.Random(seed), size),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=max_base),
    )


def seeded_galois(max_base=4):
    return st.builds(
        lambda seed, size: random_galois_polarity(random.Random(seed), size),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=max_base),
    )


class TestCoherenceLevels:
    def test_fixture_levels(self):
        for name, want in (("fix_a", 3), ("fix_b", 2), ("fix_c", 1), ("fix_f", 3)):
            assert coherence_level(load(name).polarities["G"]) == want

    def test_incoherent_relation(self):
        assert coherence_level(load("fix_d").polarities["G"]) is None

    def test_report_fields_are_consistent(self):
        rep = check_coherence(load("fix_b").polarities["G"])
        assert rep.level == 2
        assert not rep.ok("C7") and rep.witness("C7") is not None
        assert rep.meet_side and not rep.join_side and not rep.galois

    @given(seeded_polarities())
    @settings(deadline=None, max_examples=60)
    def test_level_matches_the_canonical_preorder(self, pol):
        level = coherence_level(pol)
        for n in range(4):
            want = level is not None and level >= n
            assert is_n_preorder(pol, CANONICAL_BUILDERS[n](pol).closed(), n).ok == want

    @given(seeded_galois())
    @settings(deadline=None, max_examples=40)
    def test_two_coherent_meet_join_sides_are_three_coherent(self, pol):
        # grade 2 with a meet extension left and join extension right
        # already forces grade 3, so the slice construction lands on 3
        assert is_meet_extension(pol.ex) and is_join_extension(pol.ey)
        assert coherence_level(pol) == 3


class TestEntanglement:
    @given(seeded_galois())
    @settings(deadline=None, max_examples=30)
    def test_galois_polarities_are_entangled(self, pol):
        assert is_entangled(pol)

    def test_non_entangled_fixture(self):
        assert not is_entangled(load("fix_c").polarities["G"])


class TestGalois:
    def test_both_detection_paths_agree_on_fixtures(self):
        for name in ("fix_a", "fix_b", "fix_e", "fix_f"):
            pol = load(name).polarities["G"]
            if is_meet_extension(pol.ex) and is_join_extension(pol.ey) and coherence_level(pol) == 3:
                assert is_galois(pol) == galois_via_S1S2(pol)

    def test_unique_3preorder_requires_galois(self):
        with pytest.raises(NotGalois):
            unique_3preorder(load("fix_b").polarities["G"])

    @given(seeded_galois())
    @settings(deadline=None, max_examples=25)
    def test_unique_3preorder_certificate(self, pol):
        u = unique_3preorder(pol)
        assert is_n_preorder(pol, u, 3).ok

    def test_identity_polarity_identifies_the_copies(self):
        p = Poset.from_pairs("abc", [("a", "c"), ("b", "c")])
        pol = identity_polarity(p)
        u = unique_3preorder(pol)
        for e in p.elements:
            assert u.rel(tag_x(e), tag_y(e)) and u.rel(tag_y(e), tag_x(e))
        struct = intermediate_structure(pol, u)
        assert len(struct.quotient.poset) == len(p)


class TestEnumeration:
    def test_two_element_unconstrained_count(self):
        # a one-point side against a one-point side with an empty
        # relation admits exactly the preorders keeping y and x apart
        pol = identity_polarity(Poset.antichain("a"))
        res = enumerate_n_preorders(pol, 0)
        assert not res.truncated
        for u in res:
            assert is_n_preorder(pol, u, 0).ok

    def test_carrier_gate(self):
        pol = identity_polarity(Poset.antichain("abcdefgh"))
        with pytest.raises(CarrierTooLarge):
            enumerate_n_preorders(pol, 0, max_carrier=7)

    def test_cap_marks_truncation(self):
        pol = identity_polarity(Poset.antichain("abc"))
        res = enumerate_n_preorders(pol, 0, cap=1)
        assert res.truncated and len(res) == 1

    @given(seeded_polarities(max_base=2))
    @settings(deadline=None, max_examples=25)
    def test_enumerated_preorders_all_verify(self, pol):
        if len(pol.x) + len(pol.y) > 6:
            return
        for n in range(4):
            res = enumerate_n_preorders(pol, n, cap=40)
            for u in res:
                assert is_n_preorder(pol, u, n).ok


class TestNamedSets:
    def test_strict_inclusion_on_fixture(self):
        pol = load("fix_c").polarities["G"]
        ns = named_relation_sets(pol)
        order = {(a, b) for a in pol.x.elements for b in pol.x.elements if pol.x.leq(a, b)}
        assert order < ns.z_x

    @given(seeded_galois())
    @settings(deadline=None, max_examples=20)
    def test_z_yx_contained_in_both_subset_variants(self, pol):
        ns = named_relation_sets(pol)
        assert ns.z_yx <= ns.z_s and ns.z_yx <= ns.z_t


class TestPreorderClauses:
    def test_reflexivity_clause(self):
        pol = load("fix_a").polarities["G"]
        v = is_n_preorder(pol, UnionPreorder.from_pairs(pol.carrier(), []), 0)
        assert not v.ok and v.clause == "reflexive"

    def test_cross_agreement_clause(self):
        pol = load("fix_a").polarities["G"]
        carrier = pol.carrier()
        pairs = [(e, e) for e in carrier]
        pairs += [(tag_x(a), tag_x(b)) for a, b in pol.x.pairs()]
        pairs += [(tag_y(a), tag_y(b)) for a, b in pol.y.pairs()]
        u = UnionPreorder.from_pairs(carrier, pairs).closed()
        v = is_n_preorder(pol, u, 0)
        assert not v.ok and v.clause == "P1" and v.witness in pol.rel

    def test_commutation_clause(self):
        pol = load("fix_c").polarities["G"]
        u = r_zero(pol).closed()
        v = is_n_preorder(pol, u, 1)
        assert not v.ok and v.clause == "commutation"

    def test_grade_bounds(self):
        pol = load("fix_a").polarities["G"]
        with pytest.raises(ValueError):
            is_n_preorder(pol, r_zero(pol).closed(), 4)


# Order duality swaps the two members of each pair of conditions.
SWAPPED = {"C1": "C2", "C5": "C6", "C7": "C8", "E1": "E2", "S1": "S2"}


def _reversed(w):
    return None if w is None else w[::-1]


def _assert_dual_report(pol):
    rep, dual = check_coherence(pol), check_coherence(dual_polarity(pol))
    assert dual.level == rep.level and dual.galois == rep.galois
    assert (dual.meet_side, dual.join_side) == (rep.join_side, rep.meet_side)
    for left, right in SWAPPED.items():
        assert dual.ok(left) == rep.ok(right)
        assert dual.ok(right) == rep.ok(left)
    for name in ("C3", "C4"):
        assert dual.ok(name) == rep.ok(name)


class TestDuality:
    @given(seeded_polarities())
    @settings(deadline=None, max_examples=60)
    def test_dual_is_involutive(self, pol):
        assert dual_polarity(dual_polarity(pol)) == pol

    @given(seeded_polarities())
    @settings(deadline=None, max_examples=60)
    def test_dual_swaps_the_verdicts(self, pol):
        _assert_dual_report(pol)

    def test_fixture_duals_swap_the_verdicts(self):
        # the fixtures include one-sided polarities (fix_b is meet-side only)
        for fixture in CATALOGUE:
            for pol in load(fixture.name).polarities.values():
                _assert_dual_report(pol)

    @given(seeded_polarities())
    @settings(deadline=None, max_examples=60)
    def test_right_hand_witnesses_come_from_the_dual(self, pol):
        rep, dual = check_coherence(pol), check_coherence(dual_polarity(pol))
        for left in ("C1", "C7", "E1"):
            assert rep.witness(SWAPPED[left]) == _reversed(dual.witness(left))
        w = dual.witness("C5")
        assert rep.witness("C6") == (None if w is None else (w[1], w[2], w[0]))

    @given(seeded_polarities())
    @settings(deadline=None, max_examples=40)
    def test_right_hand_pair_sets_come_from_the_dual(self, pol):
        ns, dual = named_relation_sets(pol), named_relation_sets(dual_polarity(pol))
        assert ns.z_t == {(b, a) for a, b in dual.z_s}
        assert ns.z_y == {(b, a) for a, b in dual.z_x}


class TestWitnesses:
    @given(seeded_polarities())
    @settings(deadline=None, max_examples=80)
    def test_failing_witnesses_are_violations(self, pol):
        X, Y, R = pol.x, pol.y, pol.rel
        ex, ey = pol.ex, pol.ey
        rep = check_coherence(pol)
        violated = {
            "C1": lambda x1, x2, y: X.leq(x1, x2) and (x2, y) in R and (x1, y) not in R,
            "C2": lambda x, y1, y2: Y.leq(y1, y2) and (x, y1) in R and (x, y2) not in R,
            "C3": lambda p: (ex(p), ey(p)) not in R,
            "C4": lambda x, p, y: (x, ey(p)) in R and (ex(p), y) in R and (x, y) not in R,
            "C5": lambda x1, p, x2: (x1, ey(p)) in R and X.leq(ex(p), x2) and not X.leq(x1, x2),
            "C6": lambda p, y1, y2: (ex(p), y2) in R and Y.leq(y1, ey(p)) and not Y.leq(y1, y2),
            "E1": lambda x1, x2: not X.leq(x1, x2)
            and all((x1, y) in R for y in Y.elements if (x2, y) in R),
            "E2": lambda y1, y2: not Y.leq(y1, y2)
            and all((x, y2) in R for x in X.elements if (x, y1) in R),
        }
        for name, predicate in violated.items():
            ok, w = rep.conditions[name]
            if ok:
                assert w is None, name
            else:
                assert predicate(*(w if name != "C3" else (w,))), (name, w)
