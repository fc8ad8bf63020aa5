import random
import re
import textwrap
from collections import Counter
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polab.errors import (
    AntisymmetryViolation,
    CarrierMismatch,
    DomainMismatch,
    LawViolation,
    NotCompleteLattice,
    NotCutStable,
    NotDelta1,
    NotEmbedding,
    NotMonotone,
    NotPreorder,
    PolabError,
    UnknownId,
)
from polab.order import (
    Extension,
    MonotoneMap,
    Poset,
    Quotient,
    UnionPreorder,
    _bounds_failure,
    _closed_relations,
    _complete_hom_failure,
    _cut_extension,
    _expressible,
    _inclusion,
    _intersection_lattice,
    _lift,
    _reflection_failure,
    _transpose,
    check_galois_connection,
    compose,
    is_completion,
    is_cut_stable,
    is_delta1,
    is_dense,
    is_join_extension,
    is_meet_extension,
    is_order_embedding,
    macneille,
    macneille_lift,
    tag_x,
    tag_y,
    transitive_close,
)
from polab.concepts import adjoint_pair, concept_lattice
from polab.delta1 import Delta1Completion
from polab.fixtures import CATALOGUE, load
from polab.oracles import (
    glb,
    leq,
    lub,
    naive_transitive_close,
    naive_transitivity_witness,
    oracle_bounds_failure,
    oracle_closed_relations,
    oracle_complete_hom_failure,
    oracle_enumerate_preorders,
    oracle_extensions_isomorphic,
    oracle_is_complete_lattice,
    oracle_is_cut_stable,
    oracle_is_delta1,
    oracle_monotone_failure,
    oracle_order_failure,
    oracle_order_isomorphisms,
    oracle_reflection_failure,
    literal_bound,
)
from polab.morphisms import psi_of, structure_of
from polab.polarity import r_zero
from polab.randgen import (
    morphism_corpus,
    random_embedding,
    random_extension_polarity,
    random_galois_polarity,
    random_join_extension,
    random_meet_extension,
    random_poset,
)

from conftest import (
    INDEX_SABOTAGE,
    chain,
    dual_extension,
    lossy_side,
    mask_of,
    random_monotone,
    run_optimized,
    seeded_posets,
)


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


def naive_lift(src, tgt, up=False):
    """For two maps out of one poset: each element s of the target of
    `src` sent to the join of the `tgt` images of the elements whose `src`
    image lies below s (with `up`, to the meet of those above it)."""
    S, T = src.target, tgt.target
    bound = T.meet_index if up else T.join_index

    def counted(p, s):
        return S.leq(s, src(p)) if up else S.leq(src(p), s)

    def value(s):
        k = bound(mask_of(T, [tgt(p) for p in src.source.elements if counted(p, s)]))
        return None if k is None else T.elements[k]

    return {s: value(s) for s in S.elements}


def diamond():
    return Poset.from_pairs("bot l r top".split(), [("bot", "l"), ("bot", "r"), ("l", "top"), ("r", "top")])


class TestPoset:
    def test_chain_order(self):
        c = chain("abc")
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
        p = chain("ab")
        with pytest.raises(UnknownId):
            p.leq("a", "zz")

    def test_meet_and_join_on_diamond(self):
        d = diamond()
        lr = 1 << d.index["l"] | 1 << d.index["r"]
        assert d.elements[d.meet_index(lr)] == "bot"
        assert d.elements[d.join_index(lr)] == "top"
        assert d.elements[d.meet_index(0)] == "top" and d.elements[d.join_index(0)] == "bot"
        assert d.is_complete_lattice()

    def test_missing_meet(self):
        a = Poset.antichain("xy")
        assert a.meet_index(0b11) is None
        assert not a.is_complete_lattice()

    def test_dual_swaps_meet_and_join(self):
        d = diamond().dual()
        assert d.elements[d.meet_index(1 << d.index["l"] | 1 << d.index["r"])] == "top"

    def test_restrict_keeps_induced_order(self):
        d = diamond()
        sub = d.restrict(["bot", "top", "l"])
        assert sub.leq("bot", "top") and sub.leq("l", "top")

    def test_restrict_refuses_unknown_ids(self):
        """As `leq` and `relabel` do: the first id that is not an
        element is named."""
        c = chain("ab")
        for keep in (["a", "zz"], ["zz"], ["zz", "a", "yy"]):
            with pytest.raises(UnknownId, match="unknown element 'zz'"):
                c.restrict(keep)

    @given(seeded_posets())
    def test_covers_regenerate_the_order(self, p):
        assert Poset.from_pairs(p.elements, p.covers()) == p

    def test_covers_are_their_definition(self):
        """The pairs a < b with no c strictly between, a then b in
        carrier order, on the empty poset, an antichain, a chain and
        seeded posets, half of them rebuilt on shuffled carriers."""
        rng = random.Random(47)
        posets = [Poset.antichain(()), Poset.antichain("abcd"), chain("abcdef")]
        for k in range(300):
            p = random_poset(rng, k % 13, rng.uniform(0.1, 0.7))
            if k % 2:
                p = Poset.from_pairs(rng.sample(p.elements, len(p)), p.covers())
            posets.append(p)
        for p in posets:
            els = p.elements
            between = lambda a, b: any(
                c not in (a, b) and p.leq(a, c) and p.leq(c, b) for c in els
            )
            want = [(a, b) for a in els for b in els
                    if a != b and p.leq(a, b) and not between(a, b)]
            assert p.covers() == want

    def test_a_random_poset_is_its_closed_draws(self):
        """`random_poset` reads the random source as the index-order DAG
        it closes, and gives the poset that DAG closes to."""
        rng, again = random.Random(61), random.Random(61)
        for k in range(500):
            size = k % 11
            rows = [1 << i for i in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    if again.random() < 0.3:
                        rows[i] |= 1 << j
            want = Poset(["e%d" % i for i in range(size)], transitive_close(rows))
            assert random_poset(rng, size) == want
            assert rng.getstate() == again.getstate()

    @given(seeded_posets())
    def test_dual_is_involutive(self, p):
        assert p.dual().dual() == p

    def test_the_hash_is_kept(self):
        """The hash is that of the ids and rows, computed once and kept,
        and equal posets built apart hash equal."""
        rng = random.Random(53)
        for size in range(6):
            p = random_poset(rng, size)
            assert "_hash" not in p.__dict__
            assert hash(p) == hash((p.elements, p.rows)) == p.__dict__["_hash"]
            p.__dict__["_hash"] = 17
            assert hash(p) == 17
            again = Poset.from_pairs(p.elements, p.covers())
            assert again == p and hash(again) == hash((p.elements, p.rows))


class TestMonotoneMap:
    def test_rejects_non_monotone(self):
        c = chain("ab")
        a = Poset.antichain("ab")
        with pytest.raises(NotMonotone):
            MonotoneMap(c, a, {"a": "a", "b": "b"})

    def test_rejects_keys_outside_the_source(self):
        c = chain("ab")
        with pytest.raises(UnknownId, match="key 'zz' is not in the source") as e:
            MonotoneMap(c, c, {"a": "a", "zz": "a", "b": "b"})
        assert e.value.witness == "zz"

    def test_an_id_outside_the_domain_is_unknown(self):
        f = MonotoneMap(chain("ab"), chain("xy"), {"a": "x", "b": "y"})
        assert f("b") == "y"
        with pytest.raises(UnknownId, match="element 'x' is not in the domain"):
            f("x")

    def test_composition_and_identity(self):
        c = chain("ab")
        d = chain("abc")
        f = MonotoneMap(c, d, {"a": "a", "b": "c"})
        assert compose(MonotoneMap.identity(d), f) == f
        assert compose(f, MonotoneMap.identity(c)) == f

    def test_the_labels_are_read_off_the_index_map(self):
        """`assignment` is the label dict of a map from any constructor:
        the dict given to the public one, the composite of the dicts for
        `compose`, and each element to itself for `identity`; each
        monotone dict between small seeded posets is tried."""

        def monotone(source, target):
            for images in product(target.elements, repeat=len(source)):
                given = dict(zip(source.elements, images))
                try:
                    yield MonotoneMap(source, target, given), given
                except NotMonotone:
                    pass

        rng = random.Random(75)
        for _ in range(40):
            s, t = (random_poset(rng, rng.randint(1, 3)) for _ in range(2))
            assert MonotoneMap.identity(t).assignment == {q: q for q in t.elements}
            ends = list(monotone(t, t))
            for f, given in monotone(s, t):
                assert f.assignment == given
                for g, outer in ends:
                    assert g.assignment == outer
                    assert compose(g, f).assignment == {p: outer[q] for p, q in given.items()}

    def test_embedding_detection(self):
        c = chain("ab")
        a = Poset.antichain("ab")
        assert is_order_embedding(MonotoneMap(c, chain("abc"), {"a": "a", "b": "b"}))
        assert not is_order_embedding(MonotoneMap(a, chain("xy"), {"a": "x", "b": "y"}))


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

    def test_each_half_of_density_is_needed(self):
        """The lattice of the masks {0, 4, 8, 10, 12, 13, 15} under
        inclusion, with the base a < c < d, b < d sent to 4, 13, 15 and
        10: every element is a join of meets of images, not every one a
        meet of joins, so this completion is not Δ₁.  On the dual lattice
        and base the halves swap.  Each half is read off the literal
        subset bounds."""
        masks = [0, 4, 8, 10, 12, 13, 15]
        lattice = Poset.from_pairs(masks, [(m, k) for m in masks for k in masks if not m & ~k])
        base = Poset.from_pairs("abcd", [("a", "c"), ("c", "d"), ("b", "d")])
        e = Extension(MonotoneMap(base, lattice, {"a": 4, "b": 10, "c": 13, "d": 15}))

        def bounds(t, bound, elems):
            return {bound(t, sub) for k in range(len(elems) + 1) for sub in combinations(elems, k)}

        for ext, halves in ((e, (True, False)), (dual_extension(e), (False, True))):
            t, image = ext.target, sorted(set(ext.map.assignment.values()))
            joins_of_meets = bounds(t, lub, sorted(bounds(t, glb, image)))
            meets_of_joins = bounds(t, glb, sorted(bounds(t, lub, image)))
            assert (joins_of_meets >= set(masks), meets_of_joins >= set(masks)) == halves
            assert is_completion(ext) and not is_dense(ext) and not oracle_is_delta1(ext)
            with pytest.raises(NotDelta1):
                Delta1Completion(ext)

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
        c = chain("ab")
        isos = list(oracle_order_isomorphisms(c, chain("xy")))
        assert len(isos) == 1 and isos[0]("a") == "x"

    def test_antichain_has_two_isos(self):
        a = Poset.antichain("ab")
        assert len(list(oracle_order_isomorphisms(a, Poset.antichain("xy")))) == 2

    def test_extensions_isomorphic_fixes_the_base(self):
        p = Poset.antichain("ab")
        e1 = macneille(p)
        e2 = macneille(p)
        assert oracle_extensions_isomorphic(e1, e2)


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

    def test_rows_wider_than_the_carrier_are_rejected(self):
        """Packed rows must not bleed into the next one."""
        carrier = (tag_x("a"), tag_x("b"))
        for rows in ([0b101, 0b10], [0b1, 0b110]):
            with pytest.raises(CarrierMismatch, match="wider than carrier"):
                UnionPreorder(carrier, rows)
        assert UnionPreorder(carrier, [0b11, 0b10]).is_preorder()

    def test_negative_rows_are_rejected(self):
        """A negative row sets every bit past the carrier, beside rows
        that do not: each 3-row matrix with entries from -9 to 7 that
        holds one is refused by both constructors."""
        carrier = (tag_x("a"), tag_x("b"), tag_y("a"))
        refused = 0
        for rows in product(range(-9, 8), repeat=3):
            if min(rows) >= 0:
                continue
            with pytest.raises(CarrierMismatch, match="wider than carrier"):
                UnionPreorder(carrier, rows)
            with pytest.raises(PolabError):
                Poset("abc", rows)
            refused += 1
        assert refused == 17**3 - 8**3

    def test_an_element_off_the_carrier_is_unknown(self):
        """`rel` names an element off the carrier with `UnknownId`, as
        `Poset.leq` does, on a relation built from pairs and on one built
        from its packed matrix."""
        pol = load("fix_a").polarities["G"]
        x, y = tag_x(pol.x.elements[0]), tag_y(pol.y.elements[0])
        for u in (r_zero(pol), UnionPreorder.from_pairs(pol.carrier(), [])):
            for a, b, missing in ((tag_x("nope"), y, tag_x("nope")), (x, "nope", "nope")):
                with pytest.raises(UnknownId, match=re.escape("unknown element %r" % (missing,))):
                    u.rel(a, b)

    def test_equal_relations_hash_equal_without_decoding_rows(self):
        """A relation built from its rows and one built from its packed
        matrix are equal and hash equal, and hashing the packed one does
        not decode its rows."""
        rng = random.Random(67)
        for n in range(6):
            carrier = tuple(range(n))
            rows = [rng.getrandbits(n) for _ in range(n)]
            built = UnionPreorder(carrier, rows)
            packed = UnionPreorder._of_packed(carrier, built.index, built.packed, False)
            assert packed == built and hash(packed) == hash(built)
            assert "rows" not in packed.__dict__ and "rows" not in built.__dict__
            assert built.rows == tuple(rows)
            assert hash(packed.closed()) == hash(built.closed())


def _walk(forced, barred):
    """`_closed_relations` on square bit-rows, through the packed matrices
    a `UnionPreorder` keeps, each result as its tuple of rows."""
    carrier = tuple(range(len(forced)))
    found = _closed_relations(
        UnionPreorder(carrier, forced).packed,
        UnionPreorder(carrier, barred).packed,
        len(carrier),
    )
    return (UnionPreorder._of_packed(carrier, None, m, True).rows for m in found)


class TestClosedRelations:
    def test_walk_matches_the_subset_sweep(self):
        """On raw forced and forbidden pairs over carriers of 0-5
        elements, conflicting ones included, the walk finds each preorder
        of the literal sweep exactly once."""
        rng = random.Random(61)
        kinds = {"clash": 0, "one": 0, "many": 0}
        while min(kinds.values()) < 60:
            n = rng.randint(0, 5)
            pairs = [(a, b) for a in range(n) for b in range(n)]
            forced = [p for p in pairs if rng.random() < 0.25]
            forbidden = [p for p in pairs if rng.random() < 0.35]
            fixed = {(a, b) for a, b in forced + forbidden if a != b}
            if n * (n - 1) - len(fixed) > 16:
                continue
            rows, barred = [0] * n, [0] * n
            for a, b in forced:
                rows[a] |= 1 << b
            for a, b in forbidden:
                barred[a] |= 1 << b
            walked = list(_walk(transitive_close(rows), barred))
            want = oracle_enumerate_preorders(range(n), forced, forbidden)
            assert sorted(walked) == sorted(u.rows for u in want)
            kinds["clash" if not want else "one" if len(want) == 1 else "many"] += 1

    def test_walk_is_the_row_walk(self):
        """On carriers of 0-9 elements the packed walk yields the row
        walk's results in the row walk's order, up to 200 of them."""
        rng = random.Random(62)
        ended = 0
        for _ in range(120):
            n = rng.randint(0, 9)
            density = rng.uniform(0.0, 0.15)
            rows = [rng.getrandbits(n) if rng.random() < density else 0 for _ in range(n)]
            bar = rng.uniform(0.1, 0.8)
            forced = naive_transitive_close(rows)
            # Mostly clear of the forced pairs, sometimes clashing with them.
            keep = 0 if rng.random() < 0.1 else -1
            barred = [
                sum(1 << j for j in range(n) if rng.random() < bar) & ~(r & keep)
                for r in forced
            ]
            walked = list(islice(_walk(forced, barred), 201))
            assert walked == list(islice(oracle_closed_relations(forced, barred), 201))
            ended += len(walked) <= 200
        assert 20 < ended < 120


class TestPackedKernels:
    def seeded_matrices(self, seed):
        """Per n = 0..12 (the packed matrix passes 64 bits at n = 9):
        random matrices of several densities, their closures, and each
        closure with one pair taken out."""
        rng = random.Random(seed)
        for n in range(13):
            for _ in range(25):
                density = rng.choice((0.05, 0.15, 0.3, 0.6))
                rows = [
                    sum(1 << j for j in range(n) if rng.random() < density)
                    for _ in range(n)
                ]
                yield n, rows
                closed = naive_transitive_close(list(rows))
                yield n, closed
                if n:
                    i, j = rng.randrange(n), rng.randrange(n)
                    yield n, [r & ~(1 << j) if a == i else r for a, r in enumerate(closed)]

    def test_closure_and_transitivity_match_the_naive_ones(self):
        verdicts = {True: 0, False: 0}
        for n, rows in self.seeded_matrices(63):
            assert transitive_close(list(rows)) == naive_transitive_close(list(rows))
            carrier = tuple(tag_y(k) for k in range(n))
            u = UnionPreorder(carrier, rows)
            assert u.rows == tuple(rows)
            want = naive_transitivity_witness(carrier, rows)
            assert u.transitivity_witness() == want
            assert u.is_transitive() == (want is None)
            verdicts[want is None] += 1
        assert min(verdicts.values()) > 200

    def test_poset_errors_are_the_stated_precedence(self):
        """Malformed matrices raise the first failure row by row:
        reflexivity, then per set bit width and antisymmetry, and
        transitivity last."""
        rng = random.Random(64)
        seen = set()
        for _ in range(1500):
            n = rng.randint(1, 10)
            rows = list(random_poset(rng, n, rng.uniform(0.1, 0.6)).rows)
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                i, j = rng.randrange(n), rng.randrange(n)
                kind = rng.choice(("reflexive", "wide", "mutual", "drop"))
                if kind == "reflexive":
                    rows[i] &= ~(1 << i)
                elif kind == "wide":
                    rows[i] |= 1 << n + rng.randrange(3)
                elif kind == "mutual":
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                elif i != j:
                    rows[i] &= ~(1 << j)
            elements = tuple("e%d" % k for k in range(n))
            want = oracle_order_failure(elements, rows)
            # Two kinds of NotPreorder, told apart by their messages; the
            # antisymmetry message names its pair, so only its type counts.
            seen.add(None if want is None else (want[0], want[0] is NotPreorder and want[1]))
            if want is None:
                assert_as_validated(Poset(elements, rows))
                continue
            with pytest.raises(PolabError) as err:
                Poset(elements, rows)
            assert (type(err.value), str(err.value), err.value.witness) == want
        assert len(seen) == 5, seen

    def test_a_non_transitive_poset_names_its_witness(self):
        """a <= b and b <= c without a <= c: the first such triple in
        carrier order is the witness."""
        with pytest.raises(NotPreorder) as err:
            Poset(("a", "b", "c"), [0b011, 0b110, 0b100])
        assert str(err.value) == "relation is not transitive"
        assert err.value.witness == ("a", "b", "c")


class TestLift:
    def completions(self, rng, count):
        """Meet- and join-completions of seeded posets: the cut completion
        is both, down-sets give a join- and up-sets a meet-completion."""
        for _ in range(count):
            p = random_poset(rng, rng.randint(1, 4))
            ups = dual_extension(downset_extension(p.dual()))
            yield (macneille(p), ups), (macneille(p), downset_extension(p))

    def test_adjoints_are_the_naive_bounds(self):
        rng = random.Random(31)
        for meets, joins in self.completions(rng, 40):
            for ex in meets:
                for ey in joins:
                    want_f = naive_lift(ey.map, ex.map)
                    want_g = naive_lift(ex.map, ey.map, up=True)
                    f, g = adjoint_pair(ex, ey)
                    assert f.assignment == want_f
                    assert g.assignment == want_g

    def test_macneille_lift_is_the_naive_join(self):
        rng = random.Random(32)
        lifted = 0
        while lifted < 60:
            p = random_poset(rng, rng.randint(1, 4))
            q = random_poset(rng, rng.randint(1, 4))
            f = random_monotone(rng, p, q)
            if f is None or not is_cut_stable(f):
                continue
            want = naive_lift(macneille(p).map, compose(macneille(q).map, f))
            assert macneille_lift(f).assignment == want
            lifted += 1

    def test_first_unextended_element_is_named(self):
        # both base elements go to one point, so the lift sends it to the
        # join of both images, which extends neither
        base = Poset.antichain("ab")
        point = Poset.antichain("o")
        src = MonotoneMap(base, point, {"a": "o", "b": "o"})
        tgt = macneille(base).map
        h, miss = _lift(src, tgt, join=True)
        assert miss == "a"
        assert h("o") == tgt.target.elements[tgt.target.meet_index(0)]
        _, miss = _lift(tgt, tgt, join=True)
        assert miss is None

    def test_a_target_without_the_bound_is_named(self):
        # the point would go to the join of a and b, which the antichain
        # lacks
        base = Poset.antichain("ab")
        point = Poset.antichain("o")
        src = MonotoneMap(base, point, {"a": "o", "b": "o"})
        with pytest.raises(NotCompleteLattice) as e:
            _lift(src, MonotoneMap.identity(base), join=True)
        assert e.value.witness == "o"


class TestDerivedMaps:
    def test_a_derived_map_is_tested_for_monotonicity_under_optimize(self):
        """A map derived from an index tuple looks up no label, but its
        tuple is still tested for monotonicity: a reversed composite of
        two chain maps raises `NotMonotone` with its first unordered pair,
        also when asserts are stripped."""
        script = INDEX_SABOTAGE + textwrap.dedent(
            """
            import sys
            from polab.order import Poset, compose

            assert sys.flags.optimize
            c = MonotoneMap.identity(Poset.from_pairs("abc", [("a", "b"), ("b", "c")]))
            print(refused(lambda: compose(c, c), 1, lambda idx: idx[::-1]))
            print(refused(lambda: compose(c, c), 1, lambda idx: idx))
            """
        )
        done = run_optimized(script)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.splitlines() == ["NotMonotone None ('a', 'b')", "accepted"]

    # Index tuples on the antichain p, q into the chain a < b, each off
    # its source or target: a negative index, one too many, one too few,
    # one past the target.  The antichain makes every in-range tuple
    # monotone, so only the range and length checks can refuse them.
    BAD_TUPLES = ([-1, -1], [0, 1, 1], [0], [0, 2])
    REFUSALS = textwrap.dedent(
        """
        from polab.errors import PolabError
        from polab.order import MonotoneMap, Poset

        def refusals(bad):
            two, ab = Poset.antichain("pq"), Poset.from_pairs("ab", [("a", "b")])
            out = []
            for idx in bad + [[1, 0]]:
                try:
                    out.append(MonotoneMap._of_idx(two, ab, idx).idx)
                except PolabError as err:
                    out.append((type(err).__name__, err.witness))
            return out
        """
    )

    @pytest.mark.parametrize("optimize", [False, True], ids=["in_process", "optimized"])
    def test_an_index_tuple_off_its_posets_is_refused(self, optimize):
        """`_of_idx` refuses a tuple of another length than the source, or
        with an index outside the target, with `CarrierMismatch` naming
        the tuple, also under `python -O`; a tuple that fits is kept."""
        want = [("CarrierMismatch", tuple(idx)) for idx in self.BAD_TUPLES] + [(1, 0)]
        if not optimize:
            space = {}
            exec(self.REFUSALS, space)
            assert space["refusals"](list(self.BAD_TUPLES)) == want
            return
        done = run_optimized(self.REFUSALS + "print(refusals(%r))" % (list(self.BAD_TUPLES),))
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.strip() == repr(want)


class TestCompletionPathCertificates:
    """The mask forms of `_bounds_failure`, `is_cut_stable` and
    `_complete_hom_failure` against their oracles, which take every bound
    with `literal_bound`, on maps the completion layer builds (all pass)
    and on random monotone maps between the same posets (many fail)."""

    @staticmethod
    def structures(rng, count):
        for _ in range(count):
            yield structure_of(random_galois_polarity(rng, rng.randint(1, 5)))

    def test_side_embeddings_and_lossy_maps(self):
        rng = random.Random(81)
        verdicts = {True: 0, False: 0}
        for s in self.structures(rng, 60):
            q = s.quotient.poset
            maps = [s.iota_x, s.iota_y]
            maps += [random_monotone(rng, side, q) for side in (s.iota_x.source, s.iota_y.source)]
            for f in filter(None, maps):
                sides = ((False, f.source.cols, q.cols), (True, f.source.rows, q.rows))
                for join, src, tgt in sides:
                    got = _bounds_failure(f, join=join)
                    assert (got is None) == (oracle_bounds_failure(f.idx, src, tgt) is None)
                    assert got is None or lost_bound(f.idx, src, tgt, got)
                    verdicts[got is None] += 1
        assert min(verdicts.values()) >= 40

    def test_quotient_maps_and_lattice_maps(self):
        rng = random.Random(82)
        stable, homs = {True: 0, False: 0}, set()
        maps = [psi_of(m) for m in morphism_corpus(rng, count=30, base_size=3)]
        quotients = [s.quotient.poset for s in self.structures(rng, 80)]
        maps += [random_monotone(rng, p, q) for p, q in zip(quotients, quotients[1:])]
        for f in filter(None, maps):
            got = is_cut_stable(f)
            assert got == oracle_is_cut_stable(f)
            stable[got] += 1
        for q in quotients[:40]:
            lattice = macneille(q).target
            g = random_monotone(rng, lattice, lattice)
            for f in filter(None, (MonotoneMap.identity(lattice), g)):
                got = _complete_hom_failure(f)
                assert got == oracle_complete_hom_failure(f)
                homs.add(got and got[0])
        assert min(stable.values()) >= 20
        assert {None, "meets", "joins"} <= homs


def genuine(g, failure):
    """Whether `failure`, as `_complete_hom_failure` reports it, is a law
    that `g` really breaks."""
    s, t = g.source, g.target
    kind, witness = failure

    def bound(p, ids):
        """The meet (for "top" and "meets") or join of `ids` in p, or None."""
        index = p.meet_index if kind in ("top", "meets") else p.join_index
        k = index(mask_of(p, ids))
        return None if k is None else p.elements[k]

    if kind in ("top", "bottom"):
        return witness == bound(s, ()) and g(witness) != bound(t, ())
    a, b = witness
    return g(bound(s, [a, b])) != bound(t, [g(a), g(b)])


class TestCompleteHomFailure:
    def test_matches_the_pairwise_scan(self):
        rng = random.Random(41)
        kinds = set()
        for _ in range(400):
            s = macneille(random_poset(rng, rng.randint(1, 4))).target
            t = macneille(random_poset(rng, rng.randint(1, 4))).target
            g = random_monotone(rng, s, t)
            got = _complete_hom_failure(g)
            assert got == oracle_complete_hom_failure(g)
            assert got is None or genuine(g, got)
            kinds.add(got and got[0])
        assert kinds == {None, "top", "bottom", "meets", "joins"}

    def test_lifts_are_homomorphisms(self):
        rng = random.Random(42)
        lifted = 0
        while lifted < 40:
            f = random_monotone(
                rng,
                random_poset(rng, rng.randint(1, 4)),
                random_poset(rng, rng.randint(1, 4)),
            )
            if f is None or not is_cut_stable(f):
                continue
            lift = macneille_lift(f)
            assert _complete_hom_failure(lift) is None
            assert oracle_complete_hom_failure(lift) is None
            lifted += 1

    def test_witnesses_name_the_broken_law(self):
        d = diamond()
        low = MonotoneMap(d, d, {e: "bot" for e in d.elements})
        assert _complete_hom_failure(low) == ("top", "top")
        # l and r keep their order but meet above bot
        pinch = MonotoneMap(d, d, {"bot": "bot", "l": "top", "r": "top", "top": "top"})
        assert _complete_hom_failure(pinch) == ("meets", ("l", "r"))
        assert _complete_hom_failure(pinch) == oracle_complete_hom_failure(pinch)


def lost_bound(f, src, tgt, subset):
    """Whether the index map `f` really loses the bound of `subset`: the
    bound exists in the source (`src`/`tgt` the `cols` of source and
    target for a meet, their `rows` for a join) and is not sent to the
    bound of the images, both taken by the literal loop."""
    g = literal_bound(src, subset)
    images = 0
    for i in range(len(f)):
        if subset >> i & 1:
            images |= 1 << f[i]
    return g is not None and literal_bound(tgt, images) != f[g]


class TestBoundsCertificate:
    def test_matches_the_subset_scan(self):
        """On random monotone maps and embeddings between posets of 1-7
        elements, in both orientations, the polynomial certificate and
        the subset scan agree, and every witness is a lost bound."""
        rng = random.Random(51)
        verdicts = {True: 0, False: 0}
        while sum(verdicts.values()) < 1500:
            p = random_poset(rng, rng.randint(1, 7))
            if rng.random() < 0.5:
                f = random_monotone(rng, p, random_poset(rng, rng.randint(1, 7)))
            else:
                f = random_embedding(rng, p, junk=rng.randint(0, 2)).map
            if f is None:
                continue
            idx = f.idx
            sides = ((False, p.cols, f.target.cols), (True, p.rows, f.target.rows))
            for join, src, tgt in sides:
                got = _bounds_failure(f, join=join)
                want = oracle_bounds_failure(idx, src, tgt)
                assert (got is None) == (want is None)
                assert got is None or lost_bound(idx, src, tgt, got)
                verdicts[got is None] += 1
        assert min(verdicts.values()) > 300

    def test_completions_keep_every_bound(self):
        rng = random.Random(52)
        for _ in range(100):
            p = random_poset(rng, rng.randint(1, 7))
            f = macneille(p).map
            assert _bounds_failure(f) is None
            assert _bounds_failure(f, join=True) is None

    def test_bound_index_is_the_literal_bound(self):
        """`meet_index` and `join_index`, behind `_lift` and the transfer
        checks, against the literal loop on every subset of random posets
        of 1-6 elements."""
        rng = random.Random(53)
        found = {True: 0, False: 0}
        for _ in range(150):
            p = random_poset(rng, rng.randint(1, 6))
            for index, vecs in ((p.meet_index, p.cols), (p.join_index, p.rows)):
                for mask in range(1 << len(p)):
                    got = index(mask)
                    assert got == literal_bound(vecs, mask)
                    found[got is None] += 1
        assert min(found.values()) > 1000

    def test_expressible_is_the_literal_bound(self):
        """`_expressible`, behind `is_meet_extension`, `is_join_extension`,
        `is_dense`, `delta_on_objects` and the generation certificates of
        `structure_of`, against the literal loop: q is the meet (join) of
        the images above (below) it.  On every fixture poset and on random
        posets of 1-12 elements, with no image, every element and random
        image masks, both ways."""
        rng = random.Random(54)
        posets = [
            side
            for fx in CATALOGUE
            for pol in load(fx.name).polarities.values()
            for side in (pol.base, pol.x, pol.y)
        ]
        posets += [random_poset(rng, rng.randint(1, 12)) for _ in range(120)]
        found = {True: 0, False: 0}
        for p in posets:
            n = len(p)
            for images in [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(3)]:
                chosen = [e for i, e in enumerate(p.elements) if images >> i & 1]
                for bound, below in ((glb, False), (lub, True)):
                    got = _expressible(p, images, join=below)
                    for q, e in enumerate(p.elements):
                        near = [a for a in chosen if (leq(p, a, e) if below else leq(p, e, a))]
                        want = bound(p, near) == e
                        assert (got >> q & 1 == 1) == want, (p, images, below, e)
                        found[want] += 1
        assert min(found.values()) > 1000

    def test_no_size_gate(self):
        p, t = lossy_side()
        f = MonotoneMap(p, t, {e: e for e in p.elements})
        lost = _bounds_failure(f)
        assert lost is not None and lost_bound(f.idx, p.cols, t.cols, lost)
        assert _bounds_failure(f, join=True) is None


class TestDescend:
    def test_agreeing_classes_descend(self):
        carrier = (tag_x("a"), tag_x("b"), tag_y("a"))
        u = UnionPreorder.from_pairs(
            carrier, [(carrier[0], carrier[2]), (carrier[2], carrier[0])]
        ).closed()
        q = u.quotient()
        values = q.descend(["A", "B", "A"])
        assert dict(zip(q.poset.elements, values)) == {tag_x("a"): "A", tag_x("b"): "B"}

    def test_a_disagreeing_class_is_named(self):
        carrier = (tag_x("a"), tag_x("b"), tag_y("a"))
        u = UnionPreorder.from_pairs(
            carrier, [(carrier[0], carrier[2]), (carrier[2], carrier[0])]
        ).closed()
        with pytest.raises(LawViolation) as err:
            u.quotient().descend(["A", "B", "a"])
        assert err.value.law == "well-defined"
        assert err.value.witness == (tag_x("a"), tag_y("a"))


class TestGaloisConnection:
    def test_matches_the_literal_double_loop(self):
        """`check_galois_connection` against its definition, alpha(p) <= q
        iff p <= beta(q) for every p and q, on seeded map pairs between
        posets of 1-4 elements: a random beta, which is seldom adjoint,
        and, where every q has a greatest p that alpha sends below it,
        the upper adjoint those p make."""
        rng = random.Random(33)
        verdicts = Counter()
        for _ in range(400):
            P, Q = random_poset(rng, rng.randint(1, 4)), random_poset(rng, rng.randint(1, 4))
            alpha = random_monotone(rng, P, Q)
            if alpha is None:
                continue
            betas = [random_monotone(rng, Q, P)]
            upper = {}
            for q in Q.elements:
                below = [p for p in P.elements if Q.leq(alpha(p), q)]
                upper.update({q: p for p in below if all(P.leq(b, p) for b in below)})
            if len(upper) == len(Q):
                betas.append(MonotoneMap(Q, P, upper))
            for beta in filter(None, betas):
                literal = all(
                    Q.leq(alpha(p), q) == P.leq(p, beta(q))
                    for p in P.elements
                    for q in Q.elements
                )
                assert check_galois_connection(alpha, beta) == literal
                verdicts[literal] += 1
        assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts

    def test_maps_between_other_posets_are_refused(self):
        P, Q = chain("ab"), chain("uv")
        alpha = MonotoneMap(P, Q, {"a": "u", "b": "v"})
        with pytest.raises(DomainMismatch):
            check_galois_connection(alpha, alpha)


def monotone_witness(source, target, assignment):
    """The pair a failed `MonotoneMap` construction names, or None when
    the assignment is accepted."""
    try:
        MonotoneMap(source, target, assignment)
    except NotMonotone as err:
        return err.witness
    return None


def random_maps(rng, count):
    """`count` seeded random monotone maps between posets of 1-7
    elements."""
    out = []
    while len(out) < count:
        f = random_monotone(
            rng,
            random_poset(rng, rng.randint(1, 7)),
            random_poset(rng, rng.randint(1, 7)),
        )
        if f is not None:
            out.append(f)
    return out


class TestIndexMapKernels:
    """The row-mask order checks against the literal loops over `leq`,
    verdict and witness."""

    def test_transpose_of_gathered_rows_is_the_literal_loop(self):
        """`_transpose` of the rows an index map f gathers from n target
        rows: row t holds x when bit t of `vecs[f[x]]` is set.  Empty,
        1×1 and rectangular inputs up to 20 sources by 25 targets, both
        ways round."""
        rng = random.Random(73)
        shapes = [(0, 0), (0, 4), (1, 1), (20, 25), (25, 20)]
        shapes += [(rng.randint(0, 20), rng.randint(1, 25)) for _ in range(300)]
        for m, n in shapes:
            vecs = [rng.getrandbits(n) for _ in range(n)]
            f = [rng.randrange(n) for _ in range(m)]
            want = [sum(1 << x for x in range(m) if vecs[f[x]] >> t & 1) for t in range(n)]
            assert _transpose([vecs[t] for t in f], n) == want, (m, n)

    def test_lift_is_the_literal_loop(self):
        """`_lift` against `naive_lift`, the loop over the source elements,
        on seeded pairs of maps out of one poset, into complete lattices
        and into posets that may lack a bound (`NotCompleteLattice` names
        the first element with none).  Most `src` maps are not injective."""
        rng = random.Random(79)
        seen = Counter()
        while min(seen[key] for key in ("many-to-one", "raised", "lifted")) < 100:
            p, s = (random_poset(rng, rng.randint(1, 5)) for _ in range(2))
            q = random_poset(rng, rng.randint(1, 4))
            t = macneille(q).target if rng.random() < 0.7 else q
            src, tgt = random_monotone(rng, p, s), random_monotone(rng, p, t)
            if src is None or tgt is None:
                continue
            seen["many-to-one"] += len(set(src.idx)) < len(p)
            for join in (False, True):
                want = naive_lift(src, tgt, up=not join)
                lacking = [e for e in s.elements if want[e] is None]
                if lacking:
                    with pytest.raises(NotCompleteLattice) as err:
                        _lift(src, tgt, join)
                    assert err.value.witness == lacking[0]
                    seen["raised"] += 1
                    continue
                h, miss = _lift(src, tgt, join)
                assert h.assignment == want
                assert miss == next((e for e in p.elements if want[src(e)] != tgt(e)), None)
                seen["lifted"] += 1

    def test_monotonicity_names_the_first_unordered_pair(self):
        rng = random.Random(71)
        verdicts = {True: 0, False: 0}
        while min(verdicts.values()) < 300:
            s = random_poset(rng, rng.randint(1, 7))
            t = random_poset(rng, rng.randint(1, 7))
            f = random_monotone(rng, s, t)
            if f is None:
                continue
            assignment = dict(f.assignment)
            if rng.random() < 0.6:
                assignment[rng.choice(s.elements)] = rng.choice(t.elements)
            got = monotone_witness(s, t, assignment)
            assert got == oracle_monotone_failure(s, t, assignment)
            verdicts[got is None] += 1

    def test_image_index_and_upper_preimages(self):
        for f in random_maps(random.Random(72), 200):
            s, t = f.source, f.target
            assert f.idx == tuple(t.index[f(p)] for p in s.elements)
            assert f.pre_up == [
                sum(1 << i for i, p in enumerate(s.elements) if t.leq(q, f(p)))
                for q in t.elements
            ]

    def test_lower_preimages_match_the_pair_loop(self):
        """`pre_down[t]` holds the source x with f(x) <= t, on seeded
        maps, identities and composites."""
        rng = random.Random(74)
        maps = random_maps(rng, 200)
        maps += [MonotoneMap.identity(f.target) for f in maps[:40]]
        for f in maps[:120]:
            g = random_monotone(rng, f.target, random_poset(rng, rng.randint(1, 7)))
            if g is not None:
                maps.append(compose(g, f))
        assert len(maps) > 300
        for f in maps:
            s, t = f.source, f.target
            assert f.pre_down == [
                sum(1 << i for i, p in enumerate(s.elements) if t.leq(f(p), q))
                for q in t.elements
            ]

    def test_reflection_matches_the_pair_loop(self):
        rng = random.Random(73)
        verdicts = {True: 0, False: 0}
        for f in random_maps(rng, 1500):
            got = _reflection_failure(f)
            assert got == oracle_reflection_failure(f)
            assert is_order_embedding(f) == (got is None)
            verdicts[got is None] += 1
        assert min(verdicts.values()) >= 300

    def test_cut_stability_matches_the_pair_loop(self):
        rng = random.Random(74)
        verdicts = {True: 0, False: 0}
        for f in random_maps(rng, 1500):
            got = is_cut_stable(f)
            assert got == oracle_is_cut_stable(f)
            verdicts[got] += 1
        assert min(verdicts.values()) >= 300

    def test_complete_lattice_matches_the_bound_scan(self):
        rng = random.Random(75)
        posets = [random_poset(rng, rng.randint(0, 7)) for _ in range(400)]
        posets += [macneille(random_poset(rng, rng.randint(0, 6))).target for _ in range(100)]
        posets += [
            concept_lattice(random_extension_polarity(rng, rng.randint(1, 4))).poset
            for _ in range(100)
        ]
        for fx in CATALOGUE:
            for pol in load(fx.name).polarities.values():
                posets += [pol.x, pol.y, macneille(pol.base).target]
                posets.append(concept_lattice(pol).poset)
        verdicts = {True: 0, False: 0}
        for p in posets:
            got = p.is_complete_lattice()
            assert got == oracle_is_complete_lattice(p)
            verdicts[got] += 1
        assert min(verdicts.values()) > 100

    def test_cut_and_concept_lattices_are_complete(self):
        rng = random.Random(76)
        for _ in range(100):
            p = random_poset(rng, rng.randint(0, 6))
            assert macneille(p).target.is_complete_lattice()
            pol = random_extension_polarity(rng, rng.randint(1, 4))
            assert concept_lattice(pol).poset.is_complete_lattice()

    def test_restrict_is_the_induced_order(self):
        rng = random.Random(77)
        for _ in range(200):
            p = random_poset(rng, rng.randint(0, 7))
            keep = [e for e in p.elements if rng.random() < 0.6]
            sub = p.restrict(reversed(keep))
            assert sub.elements == tuple(e for e in p.elements if e in keep)
            assert all(
                sub.leq(a, b) == p.leq(a, b) for a in sub.elements for b in sub.elements
            )
            with pytest.raises(UnknownId, match="'absent'"):
                p.restrict(keep + ["absent"])

    def test_transitivity_witness_is_the_first_in_carrier_order(self):
        rng = random.Random(78)
        for _ in range(300):
            n = rng.randint(1, 7)
            carrier = tuple(tag_x(k) for k in range(n))
            pairs = [
                (a, b) for a in carrier for b in carrier if rng.random() < 0.3
            ]
            u = UnionPreorder.from_pairs(carrier, pairs)
            first = next(
                (
                    (a, b, c)
                    for a in carrier
                    for b in carrier
                    if u.rel(a, b)
                    for c in carrier
                    if u.rel(b, c) and not u.rel(a, c)
                ),
                None,
            )
            assert u.transitivity_witness() == first
            assert u.closed().transitivity_witness() is None


def assert_as_validated(p):
    """A derived poset is what the validating constructor makes of its
    ids and rows: a partial order, with the same `cols` and `index`."""
    full = Poset(p.elements, p.rows)
    assert (p.cols, p.index) == (full.cols, full.index)


def poset_corpus(seed, count=150, max_size=8):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, random_poset(rng, rng.randint(0, max_size), rng.uniform(0.1, 0.7))


def old_meet_extension(rng, base, keep_theta, prefix):
    """The cut sub-extension as it was drawn before the single pass:
    the whole completion, restricted, renamed, each step rebuilt through
    the validating constructor."""
    valid = lambda p: Poset(p.elements, p.rows)
    m = macneille(base)
    image = {m(p) for p in base.elements}
    lattice = valid(m.target)
    kept = [c for c in lattice.elements if c in image or rng.random() < keep_theta]
    sub = valid(lattice.restrict(kept))
    renames = {c: "%s%d" % (prefix, k) for k, c in enumerate(sub.elements)}
    sub = valid(sub.relabel(renames.__getitem__))
    return Extension(MonotoneMap(base, sub, {p: renames[m(p)] for p in base.elements}))


def old_join_extension(rng, base, keep_theta, prefix):
    ext = old_meet_extension(rng, Poset(base.elements, base.cols), keep_theta, prefix)
    flipped = Poset(ext.target.elements, ext.target.cols)
    return Extension(MonotoneMap(base, flipped, {p: ext(p) for p in base.elements}))


class TestTrustBoundary:
    """Derived posets skip validation; each route must still give what
    the validating constructor gives."""

    def test_dual_and_relabel_match_validation(self):
        for _, p in poset_corpus(80):
            for q in (p.dual(), p.relabel(lambda e: ("r", e)), p.dual().dual()):
                assert_as_validated(q)
            assert p.dual().dual() == p

    def test_relabel_still_rejects_merged_ids(self):
        with pytest.raises(UnknownId):
            chain("abc").relabel(lambda e: "same")

    def test_restrict_matches_validation(self):
        for rng, p in poset_corpus(81):
            for _ in range(3):
                sub = p.restrict([e for e in p.elements if rng.random() < 0.6])
                assert_as_validated(sub)

    def test_inclusion_is_the_pairwise_loop(self):
        """The one inclusion kernel gives what the literal pairwise loops
        give, rows (inside) and columns (contains), on no masks, the
        empty mask, masks of unequal widths and masks that repeat."""
        inside = lambda ms: [sum(1 << j for j, b in enumerate(ms) if not a & ~b) for a in ms]
        contains = lambda ms: [sum(1 << j for j, b in enumerate(ms) if not b & ~a) for a in ms]
        rng = random.Random(84)
        cases = [[], [0], [0, 0], [0b101, 0b10], [1, 0b110, 0b1110000, 0b110]]
        for _ in range(400):
            pool = [rng.getrandbits(rng.randint(0, 9)) for _ in range(rng.randint(1, 5))]
            cases.append([rng.choice(pool) for _ in range(rng.randint(0, 8))])
        for masks in cases:
            rows, cols = _inclusion(masks)
            assert (rows, cols) == (inside(masks), contains(masks)), masks
            assert cols == _transpose(rows, len(masks))

    def test_intersection_lattice_matches_validation(self):
        """Cut lattices of down-sets and up-sets, and intersection
        lattices of arbitrary masks as concept lattices use: inclusion
        order, closed under intersection, as validation builds it; the
        cut completion is the first of them with its principal cuts as
        the map; and the cut sub-extensions on a sample of the closed
        sets, as the draws build them, are the lattice restricted to it,
        turned upside down for up-sets."""
        for rng, p in poset_corpus(82):
            n = len(p)
            full = (1 << n) - 1
            masks = [rng.getrandbits(n) if n else 0 for _ in range(rng.randint(0, 5))]
            cut = macneille(p)
            lat = _intersection_lattice(full, p.cols)
            assert (cut.target.elements, cut.target.rows) == (lat.elements, lat.rows)
            assert (cut.target.cols, cut.target.index) == (lat.cols, lat.index)
            assert cut.map.idx == tuple(lat.index[c] for c in p.cols)
            for gens, flip in ((p.cols, False), (p.rows, True), (masks, None)):
                lat = _intersection_lattice(full, gens)
                assert_as_validated(lat)
                cs = lat.elements
                assert full in cs and all(c & m in lat for c in cs for m in gens)
                assert all(lat.leq(c, d) == (c & ~d == 0) for c in cs for d in cs)
                some = [c for c in cs if c in gens or rng.random() < 0.5]
                want = lat.restrict(some)
                if flip is None:
                    assert _inclusion(some) == (list(want.rows), list(want.cols))
                    continue
                ids = ["s%d" % k for k in range(len(some))]
                sub = _cut_extension(p, some, ids, flip)
                assert_as_validated(sub.target)
                want = want.relabel(dict(zip(some, ids)).__getitem__)
                assert sub.target == (want.dual() if flip else want)
                assert sub.map.idx == tuple(some.index(c) for c in gens)
        with pytest.raises(UnknownId):
            _cut_extension(Poset.antichain("a"), [1, 1])
        with pytest.raises(UnknownId):
            _cut_extension(chain("ab"), [1, 3], ["s", "s"])

    def test_quotient_matches_validation(self):
        rng = random.Random(83)
        for _ in range(200):
            n = rng.randint(1, 8)
            carrier = tuple(tag_x(k) for k in range(n // 2)) + tuple(
                tag_y(k) for k in range(n - n // 2)
            )
            pairs = [(a, b) for a in carrier for b in carrier if rng.random() < 0.25]
            u = UnionPreorder.from_pairs(carrier, pairs).closed()
            q = Quotient(u)
            assert_as_validated(q.poset)
            for a in carrier:
                rep = q.projection[a]
                same = [b for b in carrier if u.rel(a, b) and u.rel(b, a)]
                assert rep == same[0] and q.classes[rep] == tuple(same)
                for b in carrier:
                    assert q.poset.leq(rep, q.projection[b]) == u.rel(a, b)

    def test_quotient_rejects_a_non_transitive_relation(self):
        a, b, c = carrier = tuple(map(tag_x, "abc"))
        u = UnionPreorder.from_pairs(carrier, [(e, e) for e in carrier] + [(a, b), (b, c)])
        for build in (Quotient, UnionPreorder.quotient):
            with pytest.raises(NotPreorder) as err:
                build(u)
            assert err.value.witness == (a, b, c)

    def test_quotient_guard_survives_optimize(self):
        script = textwrap.dedent(
            """
            import sys
            from polab.errors import NotPreorder
            from polab.order import Quotient, UnionPreorder, tag_x

            assert sys.flags.optimize
            a, b, c = carrier = tuple(map(tag_x, "abc"))
            u = UnionPreorder.from_pairs(
                carrier, [(e, e) for e in carrier] + [(a, b), (b, c)]
            )
            try:
                Quotient(u)
            except NotPreorder as err:
                print(err.witness)
            """
        )
        done = run_optimized(script)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.strip() == "(('X', 'a'), ('X', 'b'), ('X', 'c'))"

    def test_cut_sub_extensions_match_the_completion_route(self):
        """Drawn from one seed, the single-pass meet and join extensions
        equal the completion restricted and renamed (and dualised), with
        the same random draws."""
        for k, (_, base) in enumerate(poset_corpus(84, count=120, max_size=6)):
            theta = (0.0, 0.4, 1.0)[k % 3]
            for new, old in (
                (random_meet_extension, old_meet_extension),
                (random_join_extension, old_join_extension),
            ):
                fresh, ref = random.Random(k), random.Random(k)
                got = new(fresh, base, theta, "m")
                want = old(ref, base, theta, "m")
                t, u = got.target, want.target
                assert (t.elements, t.rows, t.cols, t.index) == (
                    u.elements,
                    u.rows,
                    u.cols,
                    u.index,
                )
                assert got.map.assignment == want.map.assignment
                assert fresh.getstate() == ref.getstate()
