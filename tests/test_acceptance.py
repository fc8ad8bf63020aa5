"""End-to-end acceptance suite.

Each test pins a wall-clock budget alongside its functional assertions,
so a regression in either behaviour or performance fails here first.
"""

import random
import time
from contextlib import contextmanager

import pytest

import polab.cli as cli
from polab.concepts import inclusion_preorder, z_doubleprime
from polab.delta1 import (
    check_adjunction,
    counit_iso,
    delta_on_objects,
    gamma_on_objects,
    unit,
)
from polab.errors import CarrierTooLarge
from polab.extend import (
    check_extension_preservation,
    check_restriction_preservation,
    extend_relation,
    relation_lattice_adjunction,
    slice_extension_is_slice,
)
from polab.fixtures import CATALOGUE, Fixture, load
from polab.morphisms import PolarityMorphism, compose, psi_of, roundtrip_holds
from polab.order import UnionPreorder, is_order_embedding, macneille
from polab.oracles import (
    naive_c7,
    naive_c8,
    naive_p4,
    naive_p5,
    naive_z_s,
    naive_z_t,
    oracle_extensions_isomorphic,
    prop_order_preorder,
)
from polab.polarity import (
    CANONICAL_BUILDERS,
    check_coherence,
    coherence_level,
    enumerate_n_preorders,
    is_galois,
    is_n_preorder,
    unique_3preorder,
)
from polab.randgen import (
    morphism_corpus,
    random_context,
    random_extension_polarity,
    random_galois_polarity,
    random_poset,
)

from conftest import identity_polarity, named_relation_sets


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, "took %.1fs, budget %.0fs" % (elapsed, seconds)


def sample_polarities(seed, count, max_carrier, max_base=3):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        pol = random_extension_polarity(rng, rng.randint(1, max_base))
        if len(pol.x) + len(pol.y) <= max_carrier:
            out.append(pol)
    return out


def test_01_fixture_regression():
    with budget(5):
        results = [r for fx in CATALOGUE for r in fx.run()]
        assert len(results) >= 25
        for r in results:
            assert r.ok, (r.fixture, r.label)


def test_02_hierarchy_strictness():
    with budget(60):
        # grade 1 without grade 2
        pol_c = load("fix_c").polarities["G"]
        rep_c = check_coherence(pol_c)
        assert rep_c.level == 1 and not rep_c.ok("C5")
        assert len(enumerate_n_preorders(pol_c, 1, cap=1)) == 1
        assert len(enumerate_n_preorders(pol_c, 2, cap=1)) == 0

        # grade 2 without grade 3
        pol_b = load("fix_b").polarities["G"]
        rep_b = check_coherence(pol_b)
        assert rep_b.level == 2 and not rep_b.ok("C7")
        assert len(enumerate_n_preorders(pol_b, 2, cap=1, max_carrier=8)) == 1
        assert len(enumerate_n_preorders(pol_b, 3, cap=1, max_carrier=8)) == 0

        # with a meet extension left and a join extension right the gap
        # between grades 2 and 3 closes, so the companion document keeps
        # its separating pair only at the cost of grade 1
        doc_d = load("fix_d")
        pol_d = doc_d.polarities["G"]
        assert coherence_level(pol_d) is None
        assert rep_b.meet_side and not rep_b.join_side
        slice_d = doc_d.polarities["Gslice"]
        assert is_galois(slice_d)


def test_03_preorder_characterisation():
    with budget(120):
        pols = sample_polarities(303, 500, 6, max_base=2)
        for pol in pols:
            level = coherence_level(pol)
            for n in range(4):
                res = enumerate_n_preorders(pol, n, cap=80)
                members = list(res)
                # route 1 vs route 2: enumeration and the pointwise verdict
                for u in members:
                    assert is_n_preorder(pol, u, n).ok
                # route 3: existence matches the coherence grade
                exists = bool(members)
                assert exists == (level is not None and level >= n)
                if not exists:
                    continue
                least = CANONICAL_BUILDERS[n](pol).closed()
                assert is_n_preorder(pol, least, n).ok
                if not res.truncated:
                    assert any(u == least for u in members)
                # the least one lies inside every member, row by row
                for u in members:
                    assert u.carrier == least.carrier
                    assert all(r & ~s == 0 for r, s in zip(least.rows, u.rows))
                if len(members) >= 2:
                    a, b = members[:2]
                    rows = [r & s for r, s in zip(a.rows, b.rows)]
                    both = UnionPreorder(a.carrier, rows)
                    assert is_n_preorder(pol, both, n).ok


def test_04_galois_uniqueness():
    with budget(60):
        for name in ("fix_a", "fix_e"):
            unique_3preorder(load(name).polarities["G"])
        rng = random.Random(404)
        for _ in range(200):
            pol = random_galois_polarity(rng, rng.randint(1, 4))
            u = unique_3preorder(pol)
            assert is_n_preorder(pol, u, 3).ok


def test_05_concept_lattice_routes():
    with budget(60):
        for fx in CATALOGUE:
            for pol in load(fx.name).polarities.values():
                assert prop_order_preorder(pol) == inclusion_preorder(pol)
        rng = random.Random(505)
        done = galois_done = 0
        while done < 200:
            pol = random_extension_polarity(rng, rng.randint(1, 3))
            if len(pol.x) > 8:
                continue
            assert prop_order_preorder(pol) == inclusion_preorder(pol)
            done += 1
        while galois_done < 50:
            pol = random_galois_polarity(rng, rng.randint(1, 3))
            if len(pol.x) + len(pol.y) > 10:
                continue
            got = z_doubleprime(pol, macneille(pol.x), macneille(pol.y))
            assert got == named_relation_sets(pol).z_yx_alt
            galois_done += 1


def test_06_transfer_laws():
    with budget(120):
        checked = adjunctions = 0
        rng = random.Random(606)
        while checked < 200:
            ctx = random_context(rng, rng.randint(1, 3))
            if len(ctx.inner.x) * len(ctx.inner.y) > 12:
                continue
            for key, clause in check_extension_preservation(ctx).items():
                assert clause.holds, (key, clause.note)
            sbar = extend_relation(ctx)
            for key, clause in check_restriction_preservation(ctx, sbar).items():
                assert clause.holds, (key, clause.note)
            assert slice_extension_is_slice(ctx)
            if adjunctions < 10:
                try:
                    rep = relation_lattice_adjunction(ctx)
                except CarrierTooLarge:
                    rep = None
                if rep is not None:
                    assert rep.unit_holds and rep.counit_holds and rep.law_holds
                    adjunctions += 1
            checked += 1
        assert adjunctions >= 10


def test_07_morphism_roundtrips():
    with budget(30):
        rng = random.Random(707)
        corpus = morphism_corpus(rng, count=50)
        assert len(corpus) >= 50
        for m in corpus:
            assert roundtrip_holds(m)
            assert is_order_embedding(psi_of(m)) == m.is_embedding()
        first = corpus[0]
        assert compose(first, first) == first  # identity on the seed polarity
        doc = load("fix_j")
        m = doc.build_morphism("m")
        assert roundtrip_holds(m) and not m.is_isomorphism()


def test_08_completion_adjunction():
    with budget(120):
        rng = random.Random(808)
        for _ in range(100):
            p = random_poset(rng, rng.randint(1, 7))
            d = gamma_on_objects(identity_polarity(p))
            assert oracle_extensions_isomorphic(d.completion, macneille(p))
        pols = [random_galois_polarity(rng, rng.randint(1, 3)) for _ in range(12)]
        for pol in pols:
            eta = unit(pol)  # embeds, iso exactly when complete (self-checked)
            assert eta.is_embedding()
            counit_iso(gamma_on_objects(pol))
            image = delta_on_objects(gamma_on_objects(pol))
            assert unit(image).is_isomorphism()
        idents = [PolarityMorphism.identity(p) for p in pols[:3]]
        check_adjunction(
            pols[:3], morphisms=idents, composable=[(idents[0], idents[0])]
        )


def test_09_differential_oracles():
    with budget(120):
        rng = random.Random(909)
        for _ in range(1000):
            pol = random_extension_polarity(rng, rng.randint(1, 4))
            if len(pol.base) > 8:
                continue
            rep = check_coherence(pol)
            assert rep.ok("C7") == naive_c7(pol)[0]
            assert rep.ok("C8") == naive_c8(pol)[0]
            ns = named_relation_sets(pol)
            assert ns.z_s == naive_z_s(pol)
            assert ns.z_t == naive_z_t(pol)
            if is_galois(pol):
                u = unique_3preorder(pol)
                assert naive_p4(pol, u)[0]
                assert naive_p5(pol, u)[0]


def test_10_cli_contract(capsys, monkeypatch):
    with budget(90):
        assert cli.main(["fixtures"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

        assert cli.main(["fuzz", "--seed", "0", "--size", "5", "--iters", "1000"]) == 0
        assert "fuzz ok" in capsys.readouterr().out

        with pytest.raises(SystemExit) as e:
            cli.main(["fuzz", "--seed", "0"])
        assert e.value.code == 2

        import polab.fixtures

        broken = Fixture(
            "fix_a",
            CATALOGUE[0].summary,
            lambda doc: iter([("level is three", False)]),
        )
        monkeypatch.setattr(
            polab.fixtures, "CATALOGUE", (broken,) + CATALOGUE[1:]
        )
        assert cli.main(["fixtures"]) == 1
        out = capsys.readouterr().out
        assert "level is three" in out and "FAIL" in out
