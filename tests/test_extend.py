import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polab.extend
from polab.errors import CarrierMismatch, CarrierTooLarge, NotEmbedding, NotZeroPreorder
from polab.extend import (
    ExtensionContext,
    _down_sets,
    _transpose,
    check_extension_preservation,
    check_restriction_preservation,
    extend_relation,
    phi_map,
    relation_lattice_adjunction,
    restrict_relation,
    slice_extension_is_slice,
)
from polab.fixtures import load
from polab.oracles import naive_coherence_level, oracle_coherent_relations
from polab.order import Extension, MonotoneMap, Poset, UnionPreorder, _reflection_failure, macneille
from polab.polarity import check_coherence, coherence_level, r_hat_g, r_hat_m, r_zero
from polab.randgen import random_context


def seeded_contexts(max_base=3, galois=False):
    return st.builds(
        lambda seed, size: random_context(
            random.Random(seed), size, galois=galois
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=max_base),
    )


def small_contexts(count, seed, max_pairs=12):
    """Seeded contexts with 4 to `max_pairs` outer pairs, base sizes
    cycled through 1-3."""
    rng = random.Random(seed)
    out = []
    k = 0
    while len(out) < count:
        ctx = random_context(rng, 1 + k % 3)
        k += 1
        if 4 <= len(ctx.ix.target) * len(ctx.iy.target) <= max_pairs:
            out.append(ctx)
    return out


def image_pairs(ctx):
    return frozenset((ctx.ix(x), ctx.iy(y)) for x, y in ctx.inner.rel)


def undetermined(ctx):
    return len(ctx.ix.target) * len(ctx.iy.target) - len(image_pairs(ctx))


def as_pairs(X, Y, rows):
    return frozenset(
        (X.elements[i], Y.elements[j])
        for i, row in enumerate(rows)
        for j in range(len(Y))
        if row >> j & 1
    )


def as_rows(X, Y, rel):
    rows = [0] * len(X)
    for a, b in rel:
        rows[X.index[a]] |= 1 << Y.index[b]
    return rows


def swept_clauses(ctx, limit=13):
    """Clause 5's verdict and clause 6's (applicable, holds), decided by
    the literal sweep: every 0-coherent outer relation containing the
    image pairs, graded by the naive oracle."""
    rbar = extend_relation(ctx)
    outer = ctx.outer(rbar)
    coherent = oracle_coherent_relations(outer.x, outer.y, image_pairs(ctx), limit)
    inner_level = naive_coherence_level(ctx.inner)
    outer_level = naive_coherence_level(outer)
    grades = [
        n
        for n in (2, 3)
        if inner_level is not None
        and inner_level >= n
        and (outer_level is None or outer_level < n)
    ]
    reachable = any(
        naive_coherence_level(ctx.outer(s)) >= n for n in grades for s in coherent
    )
    return all(rbar <= s for s in coherent), (bool(grades), not reachable)


def fixture_context(name, inner="G", ix="ix", iy="iy"):
    doc = load(name)
    pol = doc.polarities[inner]
    return ExtensionContext(
        pol, Extension(doc.maps[ix]), Extension(doc.maps[iy])
    )


class TestContext:
    def test_rejects_mismatched_sides(self):
        pol = load("fix_a").polarities["G"]
        wrong = macneille(Poset.chain("uv"))
        with pytest.raises(CarrierMismatch):
            ExtensionContext(pol, wrong, macneille(pol.y))

    def test_outer_sides_compose(self):
        ctx = fixture_context("fix_g", inner="G")
        for p in ctx.inner.base.elements:
            assert ctx.outer_ex(p) == ctx.ix(ctx.inner.ex(p))
            assert ctx.outer_ey(p) == ctx.iy(ctx.inner.ey(p))


class TestTransfer:
    def test_extend_then_restrict_on_fixture(self):
        ctx = fixture_context("fix_h", ix="id")
        rbar = extend_relation(ctx)
        assert restrict_relation(ctx, rbar) == ctx.inner.rel

    def test_restrict_is_monotone(self):
        ctx = fixture_context("fix_i")
        outer = load("fix_i").polarities["Gout"]
        small = restrict_relation(ctx, outer.rel - {("x", "y")})
        assert small <= restrict_relation(ctx, outer.rel)

    @given(seeded_contexts())
    @settings(deadline=None, max_examples=50)
    def test_upward_clauses(self, ctx):
        rep = check_extension_preservation(ctx)
        for key, clause in rep.items():
            assert clause.holds, (key, clause.note)

    @given(seeded_contexts(galois=True))
    @settings(deadline=None, max_examples=30)
    def test_downward_clauses(self, ctx):
        sbar = extend_relation(ctx)
        rep = check_restriction_preservation(ctx, sbar)
        for key, clause in rep.items():
            assert clause.holds, (key, clause.note)

    @given(seeded_contexts())
    @settings(deadline=None, max_examples=40)
    def test_slice_relations_travel_to_slice_relations(self, ctx):
        assert slice_extension_is_slice(ctx)


class TestPhi:
    def test_quotient_comparison_on_fixture(self):
        ctx = fixture_context("fix_g")
        outer = ctx.outer()
        pre = r_hat_g(outer).closed()
        res = phi_map(ctx, outer.rel, pre)
        assert all(res.grades.values())

    def test_rejects_non_preorders(self):
        ctx = fixture_context("fix_g")
        outer = ctx.outer()
        empty = UnionPreorder.from_pairs(outer.carrier(), [])
        with pytest.raises(NotZeroPreorder):
            phi_map(ctx, outer.rel, empty)

    @given(seeded_contexts(max_base=2))
    @settings(deadline=None, max_examples=30)
    def test_grades_always_transfer_down(self, ctx):
        rbar = extend_relation(ctx)
        outer = ctx.outer(rbar)
        level = coherence_level(outer)
        if level is None:
            return
        canonical = {0: r_zero, 1: r_hat_m, 2: r_hat_m, 3: r_hat_g}[level]
        pre = canonical(outer).closed()
        res = phi_map(ctx, rbar, pre)
        assert all(res.grades.values())

    def test_non_embedding_raises(self, monkeypatch):
        ctx = fixture_context("fix_g")
        outer = ctx.outer()
        pre = r_hat_g(outer).closed()
        monkeypatch.setattr(polab.extend, "is_order_embedding", lambda f: False)
        with pytest.raises(NotEmbedding):
            phi_map(ctx, outer.rel, pre)

    def test_reflection_failure_names_a_pair(self):
        f = MonotoneMap(Poset.antichain("ab"), Poset.chain("uv"), {"a": "u", "b": "v"})
        assert _reflection_failure(f) == ("a", "b")
        assert _reflection_failure(MonotoneMap.identity(Poset.chain("uv"))) is None


class TestAdjunction:
    def test_gate(self):
        rng = random.Random(5)
        while True:
            ctx = random_context(rng, 4)
            if len(ctx.ix.target) * len(ctx.iy.target) > 16:
                break
        with pytest.raises(CarrierTooLarge):
            relation_lattice_adjunction(ctx)

    def test_small_contexts_exhaustively(self):
        rng = random.Random(11)
        done = 0
        while done < 8:
            ctx = random_context(rng, 2)
            if len(ctx.inner.x) * len(ctx.inner.y) > 6:
                continue
            if len(ctx.ix.target) * len(ctx.iy.target) > 12:
                continue
            rep = relation_lattice_adjunction(ctx)
            assert rep.unit_holds and rep.counit_holds and rep.law_holds
            done += 1


class TestDownSets:
    """The down-set walk against the literal 2^k sweep of `polab.oracles`."""

    def test_walk_matches_the_oracle_sweep(self):
        for ctx in small_contexts(25, seed=3):
            X, Y = ctx.ix.target, ctx.iy.target
            frame = ctx._outer_frame()
            for floor in (frozenset(), image_pairs(ctx)):
                walked = [as_pairs(X, Y, rows) for rows in _down_sets(X, Y, floor)]
                assert walked == oracle_coherent_relations(X, Y, floor, limit=12)
                for rows, rel in zip(_down_sets(X, Y, floor), walked):
                    want = naive_coherence_level(ctx.outer(rel))
                    assert want is not None
                    for n in range(4):
                        got = frame.level(rows, _transpose(rows, len(Y)), n)
                        assert got == min(want, n), (rel, n)

    def test_clauses_match_the_sweep(self):
        for ctx in small_contexts(25, seed=4):
            rep = check_extension_preservation(ctx)
            five, six = swept_clauses(ctx)
            assert rep["5"].holds == five and rep["5"].note == ""
            assert (rep["6"].applicable, rep["6"].holds) == six

    def test_clause_6_walk_matches_the_sweep(self, monkeypatch):
        """Clause 6 never applies on random contexts, so the outer
        report is made to claim grade 2 for a grade-3 inner polarity."""

        def demoted(pol):
            rep = check_coherence(pol)
            if pol is not ctx.inner and rep.level == 3:
                rep.level = 2
            return rep

        monkeypatch.setattr(polab.extend, "check_coherence", demoted)
        done = 0
        for ctx in small_contexts(40, seed=5):
            if naive_coherence_level(ctx.inner) != 3 or undetermined(ctx) > 13:
                continue
            outer = ctx.outer()
            coherent = oracle_coherent_relations(outer.x, outer.y, image_pairs(ctx))
            reachable = any(naive_coherence_level(ctx.outer(s)) == 3 for s in coherent)
            rep = check_extension_preservation(ctx)
            assert rep["6"].applicable
            assert rep["6"].holds == (not reachable)
            assert rep["6"].note == ("grade 3 reachable" if reachable else "")
            done += 1
        assert done >= 3

    def test_adjunction_matches_the_sweep(self, monkeypatch):
        contexts = [
            ctx
            for ctx in small_contexts(15, seed=6)
            if len(ctx.inner.x) * len(ctx.inner.y) <= 12
        ]
        walked = [relation_lattice_adjunction(ctx) for ctx in contexts]

        def swept(X, Y, floor):
            for rel in oracle_coherent_relations(X, Y, floor, limit=12):
                yield as_rows(X, Y, rel)

        monkeypatch.setattr(polab.extend, "_down_sets", swept)
        assert walked == [relation_lattice_adjunction(ctx) for ctx in contexts]

    def test_clause_5_needs_no_gate(self):
        """Above 13 undetermined outer pairs clause 5 is still decided in
        full; at 14 it agrees with the sweep run at a raised limit."""
        rng = random.Random(8)
        fourteen = above = 0
        while not (fourteen and above):
            ctx = random_context(rng, 3)
            k = undetermined(ctx)
            if k < 14:
                continue
            rep = check_extension_preservation(ctx)
            assert rep["5"].applicable and rep["5"].holds
            assert rep["5"].note == ""
            if k == 14:
                assert rep["5"].holds == swept_clauses(ctx, limit=14)[0]
                fourteen += 1
            else:
                above += 1
