import random

import pytest
from hypothesis import assume, given, settings

from polab.errors import CarrierTooLarge
from polab.fixtures import CATALOGUE, load
from polab.oracles import (
    _forbidden,
    _forced,
    naive_c7,
    naive_c8,
    naive_coherence_level,
    naive_conditions_c1_to_c6,
    naive_p4,
    naive_p5,
    naive_z_s,
    naive_z_t,
    oracle_canonical_relations,
    oracle_enumerate_preorders,
    oracle_is_n_preorder,
    oracle_report_conditions,
    oracle_rigidity_failures,
    realizable_join,
    realizable_meet,
)
from polab.order import Poset, UnionPreorder, tag_x, tag_y
from polab.polarity import (
    ExtensionPolarity,
    _grade_masks,
    _rigidity_failures,
    check_coherence,
    coherence_level,
    enumerate_n_preorders,
    is_n_preorder,
    is_galois,
    r_hat_g,
    r_hat_m,
    r_l,
    r_zero,
    unique_3preorder,
)
from polab.randgen import (
    random_embedding,
    random_extension_polarity,
    random_galois_polarity,
    random_poset,
)

from conftest import NamedRelationSets, identity_polarity, named_relation_sets, seeded_polarities


class TestConditionOracles:
    @given(seeded_polarities())
    @settings(deadline=None, max_examples=60)
    def test_levels_agree(self, pol):
        assert coherence_level(pol) == naive_coherence_level(pol)

    @given(seeded_polarities())
    @settings(deadline=None, max_examples=60)
    def test_per_condition_verdicts_agree(self, pol):
        rep = check_coherence(pol)
        naive = {**naive_conditions_c1_to_c6(pol), "C7": naive_c7(pol), "C8": naive_c8(pol)}
        for name, (ok, _) in naive.items():
            assert rep.ok(name) == ok, name

    def test_fixture_witnesses_match_failures(self):
        pol = load("fix_c").polarities["G"]
        ok, witness = naive_conditions_c1_to_c6(pol)["C5"]
        assert not ok and witness is not None


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
            assert _rigidity_failures(pol, u) == oracle_rigidity_failures(pol, u) == []
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
                fast = _rigidity_failures(pol, v)
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
        xs, ys = pol.x.elements, pol.y.elements
        forced = [(tag_x(a), tag_x(b)) for a in xs for b in xs if pol.x.leq(a, b)]
        forced += [(tag_y(a), tag_y(b)) for a in ys for b in ys if pol.y.leq(a, b)]
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


def _differential_polarities():
    """Every fixture polarity, then 300 seeded ones on base sizes 1-3: a
    third each arbitrary, slice relations over random embeddings, and
    Galois."""
    for fixture in CATALOGUE:
        yield from load(fixture.name).polarities.values()
    rng = random.Random(23)
    for k in range(300):
        size = 1 + k % 3
        kind = k // 3 % 3
        if kind == 0:
            yield random_extension_polarity(rng, size)
        elif kind == 1:
            base = random_poset(rng, size)
            ex = random_embedding(rng, base, prefix="x")
            ey = random_embedding(rng, base, prefix="y")
            yield ExtensionPolarity(base, ex, ey, r_l(ex, ey))
        else:
            yield random_galois_polarity(rng, size)


def _fast_canonical_relations(pol):
    fr, (rx, ry) = pol._frame, pol._rows
    return {
        "r_zero": r_zero(pol),
        "r_hat_m": r_hat_m(pol),
        "r_hat_g": r_hat_g(pol),
        "pointwise": fr.relation(fr.pack(fr.xrows, fr.yrows, rx, fr.z_yx_alt())),
    }


def _pairs_of(rel):
    """The pairs of a relation on a tagged carrier, read off its rows."""
    c = rel.carrier
    return {(c[i], c[j]) for i, row in enumerate(rel.rows) for j in range(len(c)) if row >> j & 1}


def _flipped(rel, i, j):
    rows = list(rel.rows)
    rows[i] ^= 1 << j
    return UnionPreorder(rel.carrier, rows)


def _variants(rng, rel):
    """The relation, its closure, and each of them with one seeded absent
    pair added and one seeded present pair off the diagonal removed."""
    n = len(rel.carrier)
    for r in (rel, rel.closed()):
        yield r
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for present in (0, 1):
            some = [(i, j) for i, j in pairs if r.rows[i] >> j & 1 == present]
            if some:
                yield _flipped(r, *rng.choice(some))


def _clause_candidates(pol, rel, clause, sets):
    """The candidates a clause quantifies over, in carrier order, each
    with whether it fails there, one at a time."""
    X, Y, r = pol.x, pol.y, rel.rel
    xs, ys = X.elements, Y.elements
    if clause == "reflexive":
        yield from ((e, not r(e, e)) for e in rel.carrier)
    elif clause == "transitive":
        c = rel.carrier
        yield from (
            ((a, b, d), r(a, b) and r(b, d) and not r(a, d))
            for a in c
            for b in c
            for d in c
        )
    elif clause == "commutation":
        yield from (
            (p, not (r(tag_x(pol.ex(p)), tag_y(pol.ey(p))) and r(tag_y(pol.ey(p)), tag_x(pol.ex(p)))))
            for p in pol.base.elements
        )
    elif clause == "P1":
        yield from (((a, b), r(tag_x(a), tag_y(b)) != ((a, b) in pol.rel)) for a in xs for b in ys)
    elif clause in ("P2", "reflectX"):
        want = clause == "P2"
        yield from (
            ((a, b), X.leq(a, b) == want and r(tag_x(a), tag_x(b)) != want)
            for a in xs
            for b in xs
        )
    elif clause in ("P3", "reflectY"):
        want = clause == "P3"
        yield from (
            ((a, b), Y.leq(a, b) == want and r(tag_y(a), tag_y(b)) != want)
            for a in ys
            for b in ys
        )
    else:
        forced = sets.z_s if clause == "P4" else sets.z_t
        yield from (((b, a), (b, a) in forced and not r(tag_y(b), tag_x(a))) for b in ys for a in xs)


class TestGradedPreorderOracle:
    """The mask route of `is_n_preorder` and the block builders against
    the pair-by-pair route they replaced."""

    def test_canonical_rows_match_the_oracle(self):
        for pol in _differential_polarities():
            sets, want = oracle_canonical_relations(pol)
            assert named_relation_sets(pol) == NamedRelationSets(**sets)
            got = _fast_canonical_relations(pol)
            for name, rel in want.items():
                assert got[name] == rel, name
                assert got[name].closed() == rel.closed(), name

    def test_verdicts_match_the_oracle(self):
        rng = random.Random(29)
        seen = set()
        for pol in _differential_polarities():
            sets = named_relation_sets(pol)
            for rel in _fast_canonical_relations(pol).values():
                for r in _variants(rng, rel):
                    for n in range(4):
                        fast = is_n_preorder(pol, r, n)
                        slow = oracle_is_n_preorder(pol, r, n)
                        assert (fast.ok, fast.clause) == (slow.ok, slow.clause)
                        seen.add(fast.clause)
                        if fast.ok:
                            continue
                        candidates = _clause_candidates(pol, r, fast.clause, sets)
                        first = next(w for w, fails in candidates if fails)
                        if fast.clause == "transitive":
                            assert fast.witness == slow.witness
                            a, b, d = fast.witness
                            assert r.rel(a, b) and r.rel(b, d) and not r.rel(a, d)
                        else:
                            assert fast.witness == first
        assert seen == {
            None, "transitive", "P1", "P2", "P3", "commutation",
            "reflectX", "reflectY", "P4", "P5",
        }


class TestPackedFrame:
    """The frame's packed routes against the references of
    `polab.oracles`, on every fixture polarity and 300 seeded ones."""

    def test_report_matches_the_oracle(self):
        """Every condition's verdict and witness, in the order the row
        loops read them, on polarities of every level."""
        levels = set()
        for pol in _differential_polarities():
            rep = check_coherence(pol)
            assert rep.conditions == oracle_report_conditions(pol)
            assert rep.level == naive_coherence_level(pol)
            levels.add(rep.level)
        assert levels == {None, 0, 1, 2, 3}

    def test_grade_masks_match_the_block_by_block_route(self):
        """What each grade forces and forbids, from the frame's packed
        blocks and read back through a relation's rows, is the oracle's
        `_forced` and `_forbidden` with the pairs across of P1."""
        for pol in _differential_polarities():
            fr = pol._frame
            across = {(tag_x(a), tag_y(b)) for a in pol.x.elements for b in pol.y.elements}
            r = {(tag_x(a), tag_y(b)) for a, b in pol.rel}
            for n in range(4):
                forced, forbidden = (_pairs_of(fr.relation(m)) for m in _grade_masks(pol, n))
                assert forced == _forced(pol, n) | r, n
                assert forbidden == _forbidden(pol, n) | across - r, n

    def test_realizable_pair_masks_match_the_expressible_route(self):
        """The pair masks of realizable meets and joins hold the pairs the
        literal loops `realizable_meet` and `realizable_join` find, and
        their closures are the pairs the subset scans force."""
        for pol in _differential_polarities():
            fr = pol._frame
            ny = len(fr.ys)
            for i, x in enumerate(fr.xs):
                for j, y in enumerate(fr.ys):
                    assert fr.meets >> i * ny + j & 1 == realizable_meet(pol, x, y)
                    assert fr.joins >> i * ny + j & 1 == realizable_join(pol, y, x)
            assert {(b, a) for a, b in fr.pairs(fr.z_s)} == naive_z_s(pol)
            assert {(b, a) for a, b in fr.pairs(fr.z_t)} == naive_z_t(pol)

    def test_saturation_matches_the_pair_loops(self):
        """The saturation's three blocks besides the relation, each one
        product per base element on the packed `r_zero`, are the pairs of
        the oracle's loops."""
        for pol in _differential_polarities():
            sets, _ = oracle_canonical_relations(pol)
            ns = named_relation_sets(pol)
            assert (ns.z_x, ns.z_y, ns.z_yx) == (sets["z_x"], sets["z_y"], sets["z_yx"])
