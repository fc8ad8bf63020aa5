import random
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polab
import polab.extend
import polab.oracles
from polab.errors import (
    CarrierMismatch,
    LawViolation,
    NotCoherent,
    NotEmbedding,
    NotZeroPreorder,
    UnknownId,
)
from polab.extend import (
    ClauseReport,
    ExtensionContext,
    _least_graded,
    check_extension_preservation,
    check_restriction_preservation,
    extend_relation,
    phi_map,
    relation_lattice_adjunction,
    restrict_relation,
    slice_extension_is_slice,
)
from polab.fixtures import load
from polab.oracles import (
    _coherent_relations,
    naive_coherence_level,
    oracle_coherent_relations,
    oracle_extend_relation,
    oracle_relation_lattice_adjunction,
    oracle_restrict_relation,
)
from polab.order import (
    Extension,
    MonotoneMap,
    Poset,
    UnionPreorder,
    _reflection_failure,
    _union_of,
    macneille,
)
from polab.polarity import (
    CANONICAL_BUILDERS,
    ExtensionPolarity,
    check_coherence,
    coherence_level,
    r_hat_g,
    r_hat_m,
    r_l,
    r_zero,
)
from polab.randgen import random_context, random_side_context

from conftest import chain, run_optimized


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
        wrong = macneille(chain("uv"))
        with pytest.raises(CarrierMismatch):
            ExtensionContext(pol, wrong, macneille(pol.y))

    def test_outer_sides_compose(self):
        ctx = fixture_context("fix_g", inner="G")
        outer = ctx.outer()
        for p in ctx.inner.base.elements:
            assert outer.ex(p) == ctx.ix(ctx.inner.ex(p))
            assert outer.ey(p) == ctx.iy(ctx.inner.ey(p))


def _assert_guard_fails(ctx):
    """The saturation of the context's relation has grade 3 but the guard
    of downward transfer fails: clauses 0-2 hold, 3 and galois do not
    apply."""
    sbar = extend_relation(ctx)
    assert coherence_level(ctx.outer(sbar)) == 3 and not ctx._image_bounds_kept
    rep = check_restriction_preservation(ctx, sbar)
    assert all(rep[n] == ClauseReport(True, True) for n in "012")
    for clause in ("3", "galois"):
        assert rep[clause] == ClauseReport(False, True, "guard conditions not met")


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

    def test_an_off_side_pair_is_unknown(self):
        """An outer relation with a pair off the outer sides is refused by
        the read-back and the downward clauses as by `ctx.outer`: an
        `UnknownId` naming the side and the element."""
        ctx = fixture_context("fix_i")
        sbar = load("fix_i").polarities["Gout"].rel
        x, y = min(sbar)
        for bad, side in ((("nope", y), "left"), ((x, "nope"), "right"), (("nope", "nope"), "left")):
            want = "relation uses unknown %s element 'nope'" % side
            for route in (restrict_relation, check_restriction_preservation, ExtensionContext.outer):
                with pytest.raises(UnknownId, match=want):
                    route(ctx, sbar | {bad})

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

    def test_the_guard_is_decided_only_at_grade_3(self):
        """Below grade 3 no clause reads the downward guard, so it is not
        built, and the report is the one given when it is built."""
        rng = random.Random(17)
        levels = set()
        for _ in range(60):
            ctx = random_context(rng, rng.randint(1, 3))
            sbar = extend_relation(ctx)
            got = check_restriction_preservation(ctx, sbar)
            level = coherence_level(ctx.outer(sbar))
            levels.add(level)
            assert ("_image_bounds_kept" in ctx.__dict__) == (level == 3)
            guarded = ExtensionContext(ctx.inner, ctx.ix, ctx.iy)
            guarded._image_bounds_kept
            assert check_restriction_preservation(guarded, sbar) == got
        assert levels == {0, 1, 3}

    def test_a_lost_image_meet_fails_the_guard(self):
        """X' puts n between m, the meet of the base images a and b in X,
        and both of them, so ix loses that meet: the saturation has grade
        3, the guard fails, and clauses 3 and galois do not apply."""
        P, Y = Poset.antichain("ab"), Poset.antichain("ab")
        X = Poset.from_pairs("abm", [("m", "a"), ("m", "b")])
        names = {"a": "a", "b": "b"}
        ex, ey = Extension(MonotoneMap(P, X, names)), Extension(MonotoneMap(P, Y, names))
        outer_x = Poset.from_pairs("abmn", [("m", "n"), ("n", "a"), ("n", "b")])
        ix = Extension(MonotoneMap(X, outer_x, dict(names, m="m")))
        inner = ExtensionPolarity(P, ex, ey, r_l(ex, ey))
        _assert_guard_fails(ExtensionContext(inner, ix, Extension.identity(Y)))

    def test_a_lost_image_join_fails_the_guard(self):
        """The dual on Y: Y' puts n between j, the join of the base images
        a and b in Y, and both of them, so iy loses that join: the
        saturation has grade 3, the guard fails, and clauses 3 and galois
        do not apply."""
        P, X = Poset.antichain("ab"), Poset.antichain("ab")
        Y = Poset.from_pairs("abj", [("a", "j"), ("b", "j")])
        names = {"a": "a", "b": "b"}
        ex, ey = Extension(MonotoneMap(P, X, names)), Extension(MonotoneMap(P, Y, names))
        outer_y = Poset.from_pairs("abjn", [("a", "n"), ("b", "n"), ("n", "j")])
        iy = Extension(MonotoneMap(Y, outer_y, dict(names, j="j")))
        inner = ExtensionPolarity(P, ex, ey, r_l(ex, ey))
        _assert_guard_fails(ExtensionContext(inner, Extension.identity(X), iy))

    @given(seeded_contexts())
    @settings(deadline=None, max_examples=40)
    def test_slice_relations_travel_to_slice_relations(self, ctx):
        assert slice_extension_is_slice(ctx)


class TestSliceCheck:
    def test_reads_the_kept_frames(self, monkeypatch):
        """Once a context has its two frames, the slice check builds no
        other and agrees with the slice relations built pair by pair."""
        built = []
        init = polab.polarity._Frame.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        for ctx in small_contexts(60, 91, max_pairs=30):
            ctx.inner._frame, ctx._outer_frame
            monkeypatch.setattr(polab.polarity._Frame, "__init__", counting)
            got = slice_extension_is_slice(ctx)
            monkeypatch.undo()
            assert not built
            inner = ctx.inner.with_relation(r_l(ctx.inner.ex, ctx.inner.ey))
            moved = oracle_extend_relation(ExtensionContext(inner, ctx.ix, ctx.iy))
            outer = ctx.outer()
            assert got == (moved == r_l(outer.ex, outer.ey))

    def test_certificate_names_the_condition(self, monkeypatch):
        """A failed packed grade-1 test is explained by C4's witness reader,
        whose witness `NotCoherent` carries; with the reader left as it is,
        no condition explains the broken test, which raises
        `LawViolation`."""
        ctx = fixture_context("fix_g")
        monkeypatch.setattr(polab.order._PairLanes, "pivot_close", lambda self, m: -1)
        with pytest.raises(LawViolation, match="no condition explains") as err:
            slice_extension_is_slice(ctx)
        assert err.value.law == "packed-grade" and err.value.witness[0] == 0
        monkeypatch.setattr(polab.polarity._Frame, "c4", lambda self, m: ("w",))
        with pytest.raises(NotCoherent, match="C4") as err:
            slice_extension_is_slice(ctx)
        assert err.value.witness == ("w",)


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

    def test_matches_the_label_construction(self):
        """On seeded contexts, base 1-4 with and without Galois inner
        relations, and each canonical preorder the saturation's grade
        reaches, the pulled-back preorder and φ are those built on labels
        (`label_phi`)."""
        rng = random.Random(29)
        checked = 0
        for k in range(160):
            ctx = random_context(rng, 1 + k % 4, galois=k % 2 == 1)
            sbar = extend_relation(ctx)
            outer = ctx.outer(sbar)
            level = coherence_level(outer)
            for n in range(0 if level is None else level + 1):
                pre = CANONICAL_BUILDERS[n](outer).closed()
                pulled, phi = label_phi(ctx, sbar, pre)
                res = phi_map(ctx, sbar, pre)
                assert res.inner_preorder == pulled
                assert res.phi == phi and res.phi.assignment == phi.assignment
                checked += 1
        assert checked >= 400, checked

    def test_non_embedding_raises(self, monkeypatch):
        ctx = fixture_context("fix_g")
        outer = ctx.outer()
        pre = r_hat_g(outer).closed()
        monkeypatch.setattr(polab.extend, "is_order_embedding", lambda f: False)
        with pytest.raises(NotEmbedding):
            phi_map(ctx, outer.rel, pre)

    def test_reflection_failure_names_a_pair(self):
        f = MonotoneMap(Poset.antichain("ab"), chain("uv"), {"a": "u", "b": "v"})
        assert _reflection_failure(f) == ("a", "b")
        assert _reflection_failure(MonotoneMap.identity(chain("uv"))) is None


def label_phi(ctx, outer_rel, outer_preorder):
    """The pulled-back preorder and φ of `phi_map`, built on labels: each
    pair of the inner carrier asked of the outer preorder through the
    side embeddings, each inner class sent to the outer class of the
    image of its representative."""
    inner = ctx.inner.with_relation(restrict_relation(ctx, outer_rel))

    def lift(e):
        side, raw = e
        return side, ctx.ix(raw) if side == "X" else ctx.iy(raw)

    carrier = inner.carrier()
    pairs = [(a, b) for a in carrier for b in carrier if outer_preorder.rel(lift(a), lift(b))]
    pulled = UnionPreorder.from_pairs(carrier, pairs)
    q_in, q_out = pulled.quotient(), outer_preorder.quotient()
    reps = q_in.poset.elements
    phi = MonotoneMap(q_in.poset, q_out.poset, {r: q_out.projection[lift(r)] for r in reps})
    return pulled, phi


def verdicts(rep):
    return rep.unit_holds, rep.counit_holds, rep.law_holds


def kernel_saturation(ctx, rel):
    fin, fout = ctx.inner._frame, ctx._outer_frame
    return fout.pairs(ctx._transfer.extend(fin.mask(rel)))


def kernel_readback(ctx, rel):
    fin, fout = ctx.inner._frame, ctx._outer_frame
    return fin.pairs(ctx._transfer.restrict(fout.mask(rel)))


def oracle_saturation(ctx, rel):
    return oracle_extend_relation(
        ExtensionContext(ctx.inner.with_relation(rel), ctx.ix, ctx.iy)
    )


def inner_relations(ctx):
    pairs = [(a, b) for a in ctx.inner.x.elements for b in ctx.inner.y.elements]
    for m in range(1 << len(pairs)):
        yield frozenset(p for k, p in enumerate(pairs) if m >> k & 1)


class TestAdjunction:
    def test_checked_above_the_old_gate(self):
        """The seed-5 context past the old 16-outer-pair refusal is
        decided, and on 200 seeded inner relations the kernel saturates
        and reads back as the oracle does."""
        rng = random.Random(5)
        while True:
            ctx = random_context(rng, 4)
            if len(ctx.ix.target) * len(ctx.iy.target) > 16:
                break
        rep = relation_lattice_adjunction(ctx)
        assert verdicts(rep) == (True, True, True) and rep.witness is None
        assert rep.counit_checked == len(ctx.ix.target) * len(ctx.iy.target)
        pairs = sorted(
            ((a, b) for a in ctx.inner.x.elements for b in ctx.inner.y.elements), key=repr
        )
        for _ in range(200):
            r = frozenset(p for p in pairs if rng.random() < 0.3)
            sbar = oracle_saturation(ctx, r)
            assert kernel_saturation(ctx, r) == sbar
            c = ExtensionContext(ctx.inner.with_relation(r), ctx.ix, ctx.iy)
            assert kernel_readback(ctx, sbar) == oracle_restrict_relation(c, sbar)

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


class TestTransferKernel:
    """The mask kernel and the cached frames against the frozenset
    oracles and freshly built polarities."""

    def kernel_contexts(self):
        """Up to 12 outer pairs, so also up to 12 inner pairs."""
        return small_contexts(15, seed=6)

    def test_saturation_and_readback_match_the_oracle(self):
        """On every inner relation, and on every outer relation."""
        for ctx in self.kernel_contexts():
            for r in inner_relations(ctx):
                assert kernel_saturation(ctx, r) == oracle_saturation(ctx, r)
            X, Y = ctx.ix.target, ctx.iy.target
            outer_pairs = [(a, b) for a in X.elements for b in Y.elements]
            for m in range(1 << len(outer_pairs)):
                s = frozenset(p for k, p in enumerate(outer_pairs) if m >> k & 1)
                assert kernel_readback(ctx, s) == oracle_restrict_relation(ctx, s)

    def test_wrappers_match_the_oracle(self):
        for ctx in self.kernel_contexts():
            sbar = extend_relation(ctx)
            assert sbar == oracle_extend_relation(ctx)
            assert restrict_relation(ctx, sbar) == oracle_restrict_relation(ctx, sbar)

    def test_frame_reports_match_check_coherence(self):
        """The cached frames grade relations, their saturations and
        read-backs, and arbitrary outer relations as `check_coherence`
        grades the rebuilt polarities."""
        rng = random.Random(10)
        for ctx in self.kernel_contexts():
            fin, fout = ctx.inner._frame, ctx._outer_frame
            X, Y = ctx.inner.x, ctx.inner.y
            Xo, Yo = ctx.ix.target, ctx.iy.target
            inner_pairs = [(a, b) for a in X.elements for b in Y.elements]
            outer_pairs = [(a, b) for a in Xo.elements for b in Yo.elements]
            rels = [ctx.inner.rel] + [
                frozenset(p for p in inner_pairs if rng.random() < 0.5) for _ in range(10)
            ]
            for r in rels:
                sbar = kernel_saturation(ctx, r)
                under = kernel_readback(ctx, sbar)
                assert fin.report(fin.mask(r)) == check_coherence(ctx.inner.with_relation(r))
                assert fout.report(fout.mask(sbar)) == check_coherence(ctx.outer(sbar))
                assert fin.report(fin.mask(under)) == check_coherence(
                    ctx.inner.with_relation(under)
                )
                s = frozenset(p for p in outer_pairs if rng.random() < 0.5)
                assert fout.report(fout.mask(s)) == check_coherence(ctx.outer(s))

    def test_verdicts_match_the_oracle(self):
        """300 seeded draws inside the oracle's 12/16-pair gate, base
        sizes cycled through 1-3.  Draws with more than 9 inner pairs are
        passed over to bound the oracle's 2^k loop; contexts with 12
        inner pairs are compared in `test_adjunction_matches_the_sweep`."""
        rng = random.Random(12)
        done = k = 0
        while done < 300:
            ctx = random_context(rng, 1 + k % 3)
            k += 1
            inner = len(ctx.inner.x) * len(ctx.inner.y)
            if inner > 9 or len(ctx.ix.target) * len(ctx.iy.target) > 16:
                continue
            want = verdicts(oracle_relation_lattice_adjunction(ctx))
            assert verdicts(relation_lattice_adjunction(ctx)) == want
            done += 1

    def sabotaged(self, seed=13):
        """A context with at least two inner pairs and an outer pair that
        is neither an image pair nor below the image of the first."""
        rng = random.Random(seed)
        while True:
            ctx = random_context(rng, 2)
            t = ctx._transfer
            images = sum(1 << q for q in t.image)
            stray = ~(t.below[t.image[0]] | images) & ((1 << len(t.below)) - 1)
            if len(t.sat) >= 2 and stray:
                return ctx, t, stray & -stray

    def test_missing_saturation_fails_the_unit_at_that_pair(self):
        ctx, t, _ = self.sabotaged()
        t.sat[1] = 0
        rep = relation_lattice_adjunction(ctx)
        assert (rep.unit_holds, rep.counit_holds, rep.law_holds) == (False, True, False)
        pairs = [(a, b) for a in ctx.inner.x.elements for b in ctx.inner.y.elements]
        assert rep.witness == ("unit-inclusion", pairs[1])

    def test_extra_image_pair_fails_the_unit_equality(self):
        ctx, t, _ = self.sabotaged()
        other = next(q for q in t.image if not t.below[t.image[0]] >> q & 1)
        t.sat[0] |= 1 << other
        rep = relation_lattice_adjunction(ctx)
        assert not rep.unit_holds and not rep.counit_holds and not rep.law_holds
        pairs = [(a, b) for a in ctx.inner.x.elements for b in ctx.inner.y.elements]
        assert rep.witness == ("unit-equality", pairs[0])

    def test_stray_outer_pair_fails_only_the_counit(self):
        ctx, t, stray = self.sabotaged()
        t.sat[0] |= stray
        rep = relation_lattice_adjunction(ctx)
        assert (rep.unit_holds, rep.counit_holds, rep.law_holds) == (True, False, False)
        law, (a, b) = rep.witness
        x, y = next((a, b) for a in ctx.inner.x.elements for b in ctx.inner.y.elements)
        assert law == "counit"
        assert ctx.ix.target.leq(ctx.ix(x), a) and ctx.iy.target.leq(b, ctx.iy(y))

    def test_sabotage_reported_under_optimize(self):
        """`python -O` strips asserts; the verdict and its witness stay."""
        script = textwrap.dedent(
            """
            import random, sys
            from polab.extend import relation_lattice_adjunction
            from polab.randgen import random_context

            assert sys.flags.optimize
            rng = random.Random(13)
            while True:
                ctx = random_context(rng, 2)
                if len(ctx.inner.x) * len(ctx.inner.y) >= 2:
                    break
            ctx._transfer.sat[1] = 0
            rep = relation_lattice_adjunction(ctx)
            x, y = rep.witness[1]
            print(rep.unit_holds, rep.witness[0], x == ctx.inner.x.elements[1 // len(ctx.inner.y)],
                  y == ctx.inner.y.elements[1 % len(ctx.inner.y)])
            """
        )
        done = run_optimized(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "unit-inclusion", "True", "True"]


class TestDownSets:
    """The walk of the 0-coherent relations, the down-sets of X × Yᵒᵖ,
    against the literal 2^k sweep of `polab.oracles`."""

    def test_walk_matches_the_oracle_sweep(self):
        for ctx in small_contexts(25, seed=3):
            X, Y = ctx.ix.target, ctx.iy.target
            frame = ctx._outer_frame
            for floor in (frozenset(), image_pairs(ctx)):
                rows_walked = list(_coherent_relations(X, Y, as_rows(X, Y, floor)))
                walked = [as_pairs(X, Y, rows) for rows in rows_walked]
                assert sorted(walked, key=sorted) == sorted(
                    oracle_coherent_relations(X, Y, floor, limit=12), key=sorted
                )
                for rows, rel in zip(rows_walked, walked):
                    want = naive_coherence_level(ctx.outer(rel))
                    assert want is not None
                    for n in range(4):
                        got = frame.mask_level(frame.mask(rel), n)
                        assert got == min(want, n), (rel, n)

    def test_clauses_match_the_sweep(self):
        for ctx in small_contexts(25, seed=4):
            rep = check_extension_preservation(ctx)
            five, six = swept_clauses(ctx)
            assert rep["5"].holds == five and rep["5"].note == ""
            assert (rep["6"].applicable, rep["6"].holds) == six

    def test_clause_6_walk_matches_the_sweep(self, monkeypatch):
        """Clause 6 never applies on random contexts, so the outer
        frame is made to grade a grade-3 relation as grade 2."""

        def demote(frame):
            grade = frame.mask_grade

            def demoted(m):
                level, galois = grade(m)
                return (2 if level == 3 else level), galois

            monkeypatch.setattr(frame, "mask_grade", demoted)

        done = 0
        for ctx in small_contexts(40, seed=5):
            if naive_coherence_level(ctx.inner) != 3 or undetermined(ctx) > 13:
                continue
            demote(ctx._outer_frame)
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
        """The brute-force adjunction oracle gives the same reports with
        its 0-coherent outer relations walked or swept."""
        contexts = [
            ctx
            for ctx in small_contexts(15, seed=6)
            if len(ctx.inner.x) * len(ctx.inner.y) <= 12
        ]
        walked = [oracle_relation_lattice_adjunction(ctx) for ctx in contexts]

        def swept(X, Y, floor):
            floor = as_pairs(X, Y, floor)
            for rel in oracle_coherent_relations(X, Y, floor, limit=12):
                yield as_rows(X, Y, rel)

        monkeypatch.setattr(polab.oracles, "_coherent_relations", swept)
        assert walked == [oracle_relation_lattice_adjunction(ctx) for ctx in contexts]
        fast = [relation_lattice_adjunction(ctx) for ctx in contexts]
        assert [verdicts(rep) for rep in fast] == [verdicts(rep) for rep in walked]

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

    def test_clause_5_fails_on_a_wrong_pair_order(self, monkeypatch):
        """Clause 5 reads the down-closure off the outer frame, not off
        `_pair_orders`: with a stray pair in every principal down-set of
        the transfer kernel, the saturation holds it and clause 5 fails
        wherever the true saturation lacks it."""
        pair_orders = polab.extend._pair_orders

        def stray(frame):
            below = pair_orders(frame)
            top = 1 << len(below) - 1
            return [down | top for down in below]

        rng = random.Random(13)
        caught = 0
        while caught < 20:
            ctx = random_context(rng, 2)
            X, Y = ctx.ix.target, ctx.iy.target
            if not ctx.inner.rel or (X.elements[-1], Y.elements[-1]) in extend_relation(ctx):
                continue
            assert check_extension_preservation(ctx)["5"].holds
            with monkeypatch.context() as m:
                m.setattr(polab.extend, "_pair_orders", stray)
                fresh = ExtensionContext(ctx.inner, ctx.ix, ctx.iy)
                assert not check_extension_preservation(fresh)["5"].holds
            caught += 1


class TestLeastGraded:
    """Clause 6's closure: the least relation above a floor satisfying
    C1 to C4 has grade n exactly when some 0-coherent relation above the
    floor has."""

    def test_matches_the_oracle_sweep(self):
        """On 40 seeded contexts with at most 12 outer pairs, for the image
        floor and two random floors, against the swept 0-coherent
        relations graded by the naive oracle: the closure is the least
        swept relation of grade at least 1, and it reaches each grade
        1 to 3 exactly when a swept relation does.  On some floors the
        C4 step adds pairs that the C1 to C3 closure lacks."""
        rng = random.Random(21)
        grown = 0
        for ctx in small_contexts(40, seed=21):
            X, Y = ctx.ix.target, ctx.iy.target
            pairs = [(a, b) for a in X.elements for b in Y.elements]
            outer, frame = ctx.outer(), ctx._outer_frame
            base = {(outer.ex(p), outer.ey(p)) for p in ctx.inner.base.elements}
            floors = [image_pairs(ctx)] + [
                frozenset(p for p in pairs if rng.random() < 0.25) for _ in range(2)
            ]
            for floor in floors:
                least = frame.pairs(_least_graded(frame, frame.mask(floor)))
                levels = {
                    s: naive_coherence_level(ctx.outer(s))
                    for s in oracle_coherent_relations(X, Y, floor, limit=12)
                }
                graded = [s for s, level in levels.items() if level >= 1]
                assert least in graded and all(least <= s for s in graded)
                for n in (1, 2, 3):
                    reached = any(level >= n for level in levels.values())
                    assert (levels[least] >= n) == reached, (floor, n)
                based = frozenset.intersection(*(s for s in levels if base <= s))
                grown += least != based
        assert grown >= 3

    def walked_reachable(self, ctx, grades):
        """The grades among `grades` that some 0-coherent outer relation
        above the image pairs reaches, by the walk."""
        X, Y = ctx.ix.target, ctx.iy.target
        frame = ctx._outer_frame
        walked = _coherent_relations(X, Y, as_rows(X, Y, image_pairs(ctx)))
        masks = [frame.mask(as_pairs(X, Y, rx)) for rx in walked]
        return [n for n in grades if any(frame.mask_level(m, n) == n for m in masks)]

    def test_clause_6_is_decided_above_the_old_gate(self):
        """fix_j's H with both sides extended at random: where clause 6
        applies with more than 13 undetermined outer pairs, a case once
        passed over with a note, its verdict is the walk's over every
        0-coherent relation above the image pairs."""
        pol = load("fix_j").polarities["H"]
        rng = random.Random(7)
        done = 0
        while done < 8:
            ctx = random_side_context(rng, pol)
            rep = check_extension_preservation(ctx)
            if not rep["6"].applicable or undetermined(ctx) <= 13:
                continue
            frame = ctx._outer_frame
            outer = frame.mask_level(frame.mask(extend_relation(ctx)))
            reachable = self.walked_reachable(
                ctx, [n for n in (2, 3) if outer is None or outer < n]
            )
            assert rep["6"].holds == (not reachable)
            assert rep["6"].note == "; ".join("grade %d reachable" % n for n in reachable)
            assert not any("monotonicity" in clause.note for clause in rep.values())
            done += 1

    def test_grade_2_is_decided_where_clause_3_fails(self, monkeypatch):
        """Clause 6 applies at grade 2 only where clause 3 fails, which no
        context does, so the outer frame is made to grade one below the
        truth on fix_j's H contexts whose saturation has grade 2.  Both
        grades are then decided as the walk decides them: grade 2 is
        reachable, by the saturation itself."""
        pol = load("fix_j").polarities["H"]
        rng = random.Random(7)
        done = 0
        while done < 6:
            ctx = random_side_context(rng, pol)
            frame = ctx._outer_frame
            if frame.mask_level(frame.mask(extend_relation(ctx))) != 2:
                continue
            grade = frame.mask_grade
            monkeypatch.setattr(frame, "mask_grade", lambda m, grade=grade: (1, grade(m)[1]))
            rep = check_extension_preservation(ctx)
            reachable = self.walked_reachable(ctx, (2, 3))
            assert not rep["3"].holds and rep["6"].applicable
            assert reachable[0] == 2 and not rep["6"].holds
            assert rep["6"].note == "; ".join("grade %d reachable" % n for n in reachable)
            done += 1


class TestPackedClosures:
    """The pair-mask closures against their bit-row forms: `_pair_orders`
    as one product per pair, the frame's down-closure and `_least_graded`
    as one product per pivot."""

    @staticmethod
    def rows_pair_orders(X, Y):
        ny = len(Y)
        below = []
        for i in range(len(X)):
            for j in range(ny):
                down = 0
                for k in range(len(X)):
                    if X.cols[i] >> k & 1:
                        down |= Y.rows[j] << k * ny
                below.append(down)
        return below

    @staticmethod
    def rows_down_closure(frame, rx):
        return [_union_of(frame.yrows, _union_of(rx, up)) for up in frame.xrows]

    @classmethod
    def rows_least_graded(cls, frame, rx):
        rx = list(rx)
        for xi, yi in zip(frame.exi, frame.eyi):
            rx[xi] |= 1 << yi
        rx = cls.rows_down_closure(frame, rx)
        for xi, yi in zip(frame.exi, frame.eyi):
            gain = rx[xi]
            rx = [row | gain if row >> yi & 1 else row for row in rx]
        return rx

    def test_match_the_row_forms(self):
        rng = random.Random(59)
        grown = 0
        for k in range(150):
            ctx = random_context(rng, 1 + k % 3)
            for frame, (X, Y) in (
                (ctx.inner._frame, (ctx.inner.x, ctx.inner.y)),
                (ctx._outer_frame, (ctx.ix.target, ctx.iy.target)),
            ):
                assert polab.extend._pair_orders(frame) == self.rows_pair_orders(X, Y)
                lanes, n = frame.lanes, len(X) * len(Y)
                for _ in range(4):
                    m = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
                    rx = as_rows(X, Y, frame.pairs(m))
                    down = frame.pairs(lanes.down_close(m))
                    assert down == as_pairs(X, Y, self.rows_down_closure(frame, rx))
                    least = _least_graded(frame, m)
                    assert frame.pairs(least) == as_pairs(
                        X, Y, self.rows_least_graded(frame, rx)
                    )
                    grown += least != lanes.down_close(m | lanes.pivot_bits)
        assert grown >= 3
