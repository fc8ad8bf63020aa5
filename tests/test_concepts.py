import random

import pytest
from hypothesis import given, settings

from polab import concepts
from polab.concepts import (
    ConceptLattice,
    adjoint_pair,
    concept_lattice,
    inclusion_preorder,
    upsilon_embedding,
    xi_embedding,
    z_doubleprime,
)
from polab.errors import LawViolation, NotCompleteLattice, PreservationViolation
from polab.fixtures import load
from polab.oracles import polar_left, polar_right, prop_order_preorder, upsilon, xi
from polab.order import Extension, MonotoneMap, Poset, _mask_iter, macneille
from polab.randgen import random_extension_polarity, random_galois_polarity

from conftest import (
    chain,
    identity_polarity,
    lossy_side,
    mask_of,
    named_relation_sets,
    seeded_polarities,
)


class TestOperators:
    def test_polar_maps_are_antitone(self):
        pol = load("fix_a").polarities["G"]
        xs = frozenset(pol.x.elements)
        for a in pol.x.elements:
            assert polar_right(pol, xs) <= polar_right(pol, [a])

    def test_closure_is_idempotent(self):
        pol = load("fix_b").polarities["G"]
        for a in pol.x.elements:
            ext = xi(pol, a)
            assert polar_left(pol, polar_right(pol, ext)) == ext

    def test_upsilon_extent_contains_related_elements(self):
        pol = load("fix_c").polarities["G"]
        for b in pol.y.elements:
            assert upsilon(pol, b) == {a for a in pol.x.elements if (a, b) in pol.rel}


class TestConceptLattice:
    def test_lattice_is_complete(self):
        for name in ("fix_a", "fix_b", "fix_c"):
            lat = concept_lattice(load(name).polarities["G"])
            assert lat.poset.is_complete_lattice()

    def test_canonical_maps_are_monotone(self):
        pol = load("fix_a").polarities["G"]
        lat = concept_lattice(pol)
        MonotoneMap(pol.x, lat.poset, lat.xi_mask)
        MonotoneMap(pol.y, lat.poset, lat.upsilon_mask)

    def test_extents_read_back(self):
        pol = load("fix_b").polarities["G"]
        lat = concept_lattice(pol)
        for a in pol.x.elements:
            assert set(lat.extent(lat.xi_mask[a])) == xi(pol, a)

    def test_masks_match_the_polar_maps(self):
        """The extents read off the kept relation rows are the extents of
        the pair-by-pair polar maps `xi` and `upsilon`."""
        rng = random.Random(41)
        for k in range(300):
            build = random_galois_polarity if k % 3 == 0 else random_extension_polarity
            pol = build(rng, rng.randint(1, 3))
            lat = concept_lattice(pol)
            for a in pol.x.elements:
                assert lat.xi_mask[a] == mask_of(pol.x, xi(pol, a))
            for b in pol.y.elements:
                assert lat.upsilon_mask[b] == mask_of(pol.x, upsilon(pol, b))

    @given(seeded_polarities())
    @settings(deadline=None, max_examples=40)
    def test_meets_are_intersections(self, pol):
        lat = concept_lattice(pol)
        els = lat.poset.elements
        for i, c in enumerate(els):
            for j, d in enumerate(els):
                m = els[lat.poset.meet_index(1 << i | 1 << j)]
                assert m == c & d


class TestDualRoutes:
    def test_routes_agree_on_fixtures(self):
        for name in ("fix_a", "fix_b", "fix_c", "fix_e", "fix_f"):
            pol = load(name).polarities["G"]
            assert prop_order_preorder(pol) == inclusion_preorder(pol)

    @given(seeded_polarities())
    @settings(deadline=None, max_examples=60)
    def test_routes_agree_on_random_instances(self, pol):
        assert prop_order_preorder(pol) == inclusion_preorder(pol)

    @given(seeded_polarities())
    @settings(deadline=None, max_examples=30)
    def test_embedding_predicates_match_the_preorder(self, pol):
        u = prop_order_preorder(pol)
        xs, ys = pol.x, pol.y
        xi_emb = all(
            u.rel(("X", a), ("X", b)) == xs.leq(a, b)
            for a in xs.elements
            for b in xs.elements
        )
        ups_emb = all(
            u.rel(("Y", a), ("Y", b)) == ys.leq(a, b)
            for a in ys.elements
            for b in ys.elements
        )
        assert xi_embedding(pol) == xi_emb
        assert upsilon_embedding(pol) == ups_emb

    def test_a_sabotaged_image_names_the_first_pair(self, monkeypatch):
        """With one `xi_mask` entry set to the empty or the full left set,
        `xi_embedding` raises `embedding-routes` naming the first pair
        (x1, x2), in carrier order, whose inclusion of the right elements
        unrelated to them and of their lattice images differ; it accepts
        the entries that change no such inclusion."""
        rng = random.Random(41)
        named = accepted = 0
        for _ in range(40):
            pol = random_galois_polarity(rng, rng.randint(1, 4))
            lat, xs = concept_lattice(pol), pol.x.elements
            unrelated = {a: {b for b in pol.y.elements if (a, b) not in pol.rel} for a in xs}
            for a in xs:
                for wrong in (0, (1 << len(xs)) - 1):
                    images = {**lat.xi_mask, a: wrong}
                    want = next(
                        (
                            (s, t)
                            for s in xs
                            for t in xs
                            if (unrelated[s] <= unrelated[t]) != (images[s] & ~images[t] == 0)
                        ),
                        None,
                    )
                    sabotaged = ConceptLattice(pol, lat.poset, images, lat.upsilon_mask)
                    monkeypatch.setattr(concepts, "concept_lattice", lambda p: sabotaged)
                    if want is None:
                        xi_embedding(pol)
                        accepted += 1
                        continue
                    with pytest.raises(LawViolation) as err:
                        xi_embedding(pol)
                    assert (err.value.law, err.value.witness) == ("embedding-routes", want)
                    named += 1
        assert named >= 100 and accepted >= 10, (named, accepted)

    def test_a_sabotaged_lattice_order_is_caught_on_the_right(self, monkeypatch):
        """With the first covering pair of the concept lattice's order
        taken out, `upsilon_embedding` raises `embedding-routes` when that
        pair lies between two right images, and otherwise keeps its
        verdict."""
        rng = random.Random(1)
        caught = kept = 0
        lattice = concepts._intersection_lattice
        for _ in range(60):
            pol = random_galois_polarity(rng, rng.randint(1, 4))
            want, q = upsilon_embedding(pol), concept_lattice(pol).poset
            covers = [
                (i, j)
                for i, up in enumerate(q.rows)
                for j in _mask_iter(up)
                if i != j and up & q.cols[j] == 1 << i | 1 << j
            ]
            if not covers:
                continue
            i, j = covers[0]
            rows = list(q.rows)
            rows[i] ^= 1 << j
            broken = Poset(q.elements, rows)
            monkeypatch.setattr(concepts, "_intersection_lattice", lambda *args: broken)
            images = set(concept_lattice(pol).upsilon_mask.values())
            if {q.elements[i], q.elements[j]} <= images:
                with pytest.raises(LawViolation) as err:
                    upsilon_embedding(pol)
                assert err.value.law == "embedding-routes"
                caught += 1
            else:
                assert upsilon_embedding(pol) == want
                kept += 1
            monkeypatch.setattr(concepts, "_intersection_lattice", lattice)
        assert caught >= 10 and kept >= 10, (caught, kept)


class TestAdjoints:
    def test_requires_complete_target(self):
        anti = Poset.antichain("pq")
        e = macneille(anti)
        bad = Extension.identity(anti)
        with pytest.raises(NotCompleteLattice):
            adjoint_pair(bad, e)

    def test_adjoints_form_a_connection(self):
        p = Poset.from_pairs("abc", [("a", "c"), ("b", "c")])
        ex = macneille(p)
        f, g = adjoint_pair(ex, ex)
        for y in ex.target.elements:
            for x in ex.target.elements:
                assert ex.target.leq(f(y), x) == ex.target.leq(y, g(x))

    def test_rejects_non_completions(self):
        # the bottom of the chain is not a meet of image elements
        p = Poset.antichain("b")
        e = Extension(MonotoneMap(p, chain("ab"), {"b": "b"}))
        m = macneille(p)
        with pytest.raises(PreservationViolation):
            adjoint_pair(e, m)


class TestZDoublePrime:
    def galois_instances(self, count=25):
        rng = random.Random(77)
        out = []
        while len(out) < count:
            pol = random_galois_polarity(rng, rng.randint(1, 4))
            if len(pol.x) + len(pol.y) <= 10:
                out.append(pol)
        return out

    def test_matches_the_direct_relation_set(self):
        for pol in self.galois_instances():
            ix = macneille(pol.x)
            iy = macneille(pol.y)
            got = z_doubleprime(pol, ix, iy)
            assert got == named_relation_sets(pol).z_yx_alt

    def test_lost_meet_on_a_large_side(self):
        """No size gate: a 16-element side whose embedding loses a meet
        is refused, and its cut completion is accepted."""
        p, t = lossy_side()
        pol = identity_polarity(p)
        ix = Extension(MonotoneMap(pol.x, t, {e: e for e in p.elements}))
        with pytest.raises(PreservationViolation, match="preserve all existing meets"):
            z_doubleprime(pol, ix, macneille(pol.y))
        assert z_doubleprime(pol, macneille(pol.x), macneille(pol.y)) == (
            named_relation_sets(pol).z_yx_alt
        )

    def test_rejects_mismatched_base(self):
        pol = load("fix_a").polarities["G"]
        wrong = macneille(chain("uv"))
        with pytest.raises(PreservationViolation):
            z_doubleprime(pol, wrong, macneille(pol.y))
