import gc
import hashlib
import operator
import random
import textwrap

import pytest
from hypothesis import given, settings

from polab import polarity, randgen
from polab.cli import document_of
from polab.docformat import Document, MorphismDecl, serialize
from polab.delta1 import counit_iso, delta_on_objects, gamma_on_objects, unit
from polab.errors import CarrierTooLarge, LawViolation, NotCoherent, NotGalois, NotOnePreorder
from polab.fixtures import CATALOGUE, CheckResult, Fixture, load
from polab.order import (
    Extension,
    MonotoneMap,
    Poset,
    UnionPreorder,
    _mask_iter,
    is_join_extension,
    is_meet_extension,
    tag_x,
    tag_y,
)
from polab.morphisms import PolarityMorphism, roundtrip_holds
from polab.polarity import (
    CANONICAL_BUILDERS,
    CONDITION_NAMES,
    CoherenceReport,
    EnumerationResult,
    ExtensionPolarity,
    IntermediateStructure,
    NPreorderVerdict,
    check_coherence,
    coherence_level,
    enumerate_n_preorders,
    galois_via_S1S2,
    is_galois,
    is_n_preorder,
    intermediate_structure,
    r_hat_g,
    r_l,
    r_zero,
    structure_of,
    unique_3preorder,
)
from polab.extend import (
    AdjunctionReport,
    ClauseReport,
    _least_graded,
    check_extension_preservation,
    check_restriction_preservation,
    extend_relation,
    phi_map,
    relation_lattice_adjunction,
    slice_extension_is_slice,
)
from polab.oracles import leq, naive_coherence_level, oracle_report_conditions
from polab.randgen import (
    collapse_morphism,
    random_context,
    random_extension_polarity,
    random_galois_polarity,
)

from conftest import (
    chain,
    dual_polarity,
    identity_polarity,
    named_relation_sets,
    run_optimized,
    seeded_galois,
    seeded_polarities,
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
        assert check_coherence(pol).entangled

    def test_non_entangled_fixture(self):
        assert not check_coherence(load("fix_c").polarities["G"]).entangled


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

    def test_intermediate_structure_grades_its_argument(self):
        """`structure_of` passes its grade-3 verdict on; a relation handed
        in from outside is graded first: the closure of `r_zero` holds
        ex(p) below ey(p) but not back, so grade 1 fails at commutation."""
        pol = identity_polarity(chain("ab"))
        with pytest.raises(NotOnePreorder) as err:
            intermediate_structure(pol, r_zero(pol).closed())
        assert "commutation" in str(err.value) and err.value.witness == "a"


def _fixture_galois_polarities():
    for fixture in CATALOGUE:
        for pol in load(fixture.name).polarities.values():
            if is_galois(pol):
                yield pol


def _unkept(*pols):
    """The polarities, checked to have no structure kept for them or for
    equal ones; garbage left by earlier tests is collected first."""
    gc.collect()
    assert not any(pol in structure_of.memo for pol in pols)
    return pols


class TestStructureOf:
    def test_equal_polarities_share_one_structure(self):
        d = gamma_on_objects(load("fix_e").polarities["G"])
        first = delta_on_objects(d)
        second = ExtensionPolarity(first.base, first.ex, first.ey, first.rel)
        assert first is not second and first == second
        assert structure_of(first) is structure_of(second)

    def test_errors_are_raised_on_every_call(self, monkeypatch):
        not_galois, galois = _unkept(
            load("fix_b").polarities["G"], load("fix_e").polarities["G"]
        )
        # every side embedding reported as losing the meet of its first element
        monkeypatch.setattr(polarity, "_bounds_failure", lambda f, join=False: 1)
        for _ in range(2):
            with pytest.raises(NotGalois):
                structure_of(not_galois)
            with pytest.raises(LawViolation) as err:
                structure_of(galois)
            assert err.value.law == "meet-preservation"
        assert not_galois not in structure_of.memo and galois not in structure_of.memo

    def test_large_sides_are_certified(self):
        """No size gate on the preservation certificate: the identity
        polarity of a 13-element antichain is built, and seeded Galois
        polarities on 13 and 15 base elements pass the unit, the counit
        and both morphism round trips."""
        anti = Poset.antichain("abcdefghijklm")
        struct = structure_of(identity_polarity(anti))
        assert len(struct.quotient.poset) == len(anti)
        rng = random.Random(13)
        for size in (13, 15):
            pol = random_galois_polarity(rng, size)
            assert unit(pol).is_embedding()
            assert counit_iso(gamma_on_objects(pol)).is_isomorphism()
            assert roundtrip_holds(PolarityMorphism.identity(pol))
            assert roundtrip_holds(collapse_morphism(pol))

    def test_built_once_per_live_value(self, monkeypatch):
        """However many live polarities are in use, each value's structure
        is built once, and a polarity built apart with an equal value finds
        it; the completion and the polarity it generates are kept alike."""
        built, build = [], polarity.intermediate_structure

        def counting(pol, u):
            built.append(pol)
            return build(pol, u)

        monkeypatch.setattr(polarity, "intermediate_structure", counting)
        rng = random.Random(5)
        pols = _unkept(*{random_galois_polarity(rng, 3) for _ in range(30)})
        assert len(pols) > 8
        first = [structure_of(pol) for pol in pols]
        twins = [ExtensionPolarity(pol.base, pol.ex, pol.ey, pol.rel) for pol in pols]
        for pol, twin, kept in zip(pols, twins, first):
            assert structure_of(pol) is kept and structure_of(twin) is kept
        assert built == list(pols)
        for pol, twin in zip(pols, twins):
            d = gamma_on_objects(pol)
            assert gamma_on_objects(twin) is d
            assert delta_on_objects(d) is delta_on_objects(gamma_on_objects(pol))

    def test_a_dead_polarity_leaves_nothing_kept(self):
        """Once a polarity whose unit, counit and round trips were built
        is deleted, reference counting alone frees it and every value kept
        for it, and the cyclic collector finds nothing."""
        script = textwrap.dedent(
            """
            import gc, weakref
            from polab.delta1 import counit_iso, delta_on_objects, gamma_on_objects, unit
            from polab.fixtures import load
            from polab.morphisms import (
                PolarityMorphism, psi_of, roundtrip_holds, stable_roundtrip_holds,
            )
            from polab.polarity import structure_of

            memos = (structure_of.memo, gamma_on_objects.memo, delta_on_objects.memo)
            gc.collect()
            gc.disable()
            pol = load("fix_e").polarities["G"]
            assert unit(pol).is_embedding()
            assert counit_iso(gamma_on_objects(pol)).is_isomorphism()
            ident = PolarityMorphism.identity(pol)
            assert roundtrip_holds(ident)
            assert stable_roundtrip_holds(psi_of(ident), pol, pol)
            print([len(m) for m in memos])
            alive = weakref.ref(pol)
            del pol, ident
            print(alive() is None, [len(m) for m in memos], gc.collect())
            """
        )
        done = run_optimized(script, optimize=False)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.splitlines() == ["[2, 2, 1]", "True [0, 0, 0] 0"]

    def test_structure_is_frozen(self):
        struct = structure_of(load("fix_e").polarities["G"])
        with pytest.raises(AttributeError):
            struct.gamma = struct.iota_x

    def test_unique_3preorder_is_the_canonical_relation(self):
        """The certified preorder is `r_hat_g`, and where the carrier is
        small enough to enumerate, the only grade-3 preorder there is."""
        rng = random.Random(11)
        pols = list(_fixture_galois_polarities())
        pols += [random_galois_polarity(rng, 1 + k % 5) for k in range(200)]
        for pol in pols:
            u = unique_3preorder(pol)
            assert u == r_hat_g(pol)
            if len(u.carrier) <= 7:
                assert list(enumerate_n_preorders(pol, 3)) == [u]

    def test_certificates_raise_under_optimize(self):
        """A corrupted pointwise characterisation is reported as a typed
        violation with a differing pair, also when asserts are stripped."""
        script = textwrap.dedent(
            """
            import sys
            from polab import polarity
            from polab.errors import LawViolation
            from polab.fixtures import load

            assert sys.flags.optimize
            polarity._Frame.z_yx_alt = lambda self: [0] * len(self.ys)
            try:
                polarity.structure_of(load("fix_e").polarities["G"])
            except LawViolation as err:
                print(err.law, err.witness)
                sys.exit(3)
            """
        )
        done = run_optimized(script)
        assert done.returncode == 3, done.stdout + done.stderr
        law, witness = done.stdout.split(" ", 1)
        assert law == "pointwise" and witness.startswith("(('Y',")

    def test_unclosed_canonical_relation_fails_the_grade_3_test(self, monkeypatch):
        """A canonical relation that is not a preorder is caught by the
        grade-3 test, which names the first failing clause and its witness."""
        pol = load("fix_e").polarities["G"]
        u = r_hat_g(pol)
        torn = UnionPreorder(u.carrier, (u.rows[0] & ~1,) + u.rows[1:], u.index)
        monkeypatch.setattr(polarity, "r_hat_g", lambda pol: torn)
        _unkept(pol)
        with pytest.raises(LawViolation) as err:
            structure_of(pol)
        assert err.value.law == "grade-3"
        assert err.value.witness == ("reflexive", u.carrier[0])

    def test_rigidity_witness_is_the_absent_pair(self, monkeypatch):
        pol = load("fix_e").polarities["G"]
        u = r_hat_g(pol)
        loose = next(
            (u.carrier[i], u.carrier[j])
            for i in range(len(u.carrier))
            for j in range(len(u.carrier))
            if not u.rows[i] >> j & 1
        )
        monkeypatch.setattr(polarity, "_rigidity_failures", lambda pol, rel: [loose])
        _unkept(pol)
        with pytest.raises(LawViolation) as err:
            structure_of(pol)
        assert err.value.law == "rigidity" and err.value.witness == loose


class TestBaseImage:
    def test_slice_witness_test_is_the_pair_loop(self):
        """Whether every related pair has a slice witness is one mask test
        in `structure_of`'s base-image certificate, the relation inside
        `_Frame.slice_pairs`; against the loop over the relation's pairs,
        each (a, b) looking for a base p with a <= ex(p) and ey(p) <= b.
        Random relations, and random parts of the slice relation."""
        rng = random.Random(37)
        verdicts = {True: 0, False: 0}
        for _ in range(300):
            pol = random_extension_polarity(rng, rng.randint(1, 4))
            inside = [p for p in pol._frame.pairs(pol._frame.slice_pairs) if rng.random() < 0.7]
            for p in (pol, pol.with_relation(inside)):
                want = all(
                    any(leq(p.x, a, p.ex(k)) and leq(p.y, p.ey(k), b) for k in p.base.elements)
                    for a, b in p.rel
                )
                assert (not p._mask & ~p._frame.slice_pairs) == want
                verdicts[want] += 1
        assert min(verdicts.values()) > 100

    @pytest.mark.parametrize(
        "spoiled, spoil, message",
        [
            ("iota_x", "0", "base image must land in both sides"),
            ("gamma", "m & m - 1", "base image must be the intersection of the side images"),
        ],
    )
    def test_base_image_certificates_raise_under_optimize(self, spoiled, spoil, message):
        """Each base-image certificate fires, also when asserts are
        stripped: on a seeded slice polarity, the image mask of the left
        embedding read as empty puts the base image outside both sides,
        and the base image read without its lowest class leaves a class
        of both sides outside it.  The witness is the classes at fault."""
        script = textwrap.dedent(
            """
            import random
            import sys
            from polab import polarity
            from polab.errors import LawViolation
            from polab.randgen import random_galois_polarity

            assert sys.flags.optimize
            real_mask, real_intermediate, held = (
                polarity._image_mask, polarity.intermediate_structure, []
            )

            def intermediate(pol, rel):
                held.append(real_intermediate(pol, rel))
                return held[-1]

            def image_mask(idx):
                m = real_mask(idx)
                return %s if idx is held[-1].%s.idx else m

            polarity.intermediate_structure, polarity._image_mask = intermediate, image_mask
            try:
                polarity.structure_of(random_galois_polarity(random.Random(5), 3))
            except LawViolation as err:
                inter, q = held[-1], held[-1].quotient.poset
                image = real_mask(inter.gamma.idx)
                both = real_mask(inter.iota_x.idx) & real_mask(inter.iota_y.idx)
                at_fault = {"iota_x": image, "gamma": image & -image}["%s"]
                print(err.args[0])
                print(err.witness == set(q.elements_of(at_fault)), image == both)
                sys.exit(3)
            """
            % (spoil, spoiled, spoiled)
        )
        done = run_optimized(script)
        assert done.returncode == 3, done.stdout + done.stderr
        assert done.stdout.splitlines() == ["base-image: " + message, "True True"]


class TestSliceRelation:
    def test_certified_without_the_full_grade(self, monkeypatch):
        def no_full_check(pol):
            raise AssertionError("r_l must not grade all twelve conditions")

        monkeypatch.setattr(polarity, "check_coherence", no_full_check)
        pol = load("fix_e").polarities["G"]
        assert r_l(pol.ex, pol.ey) == pol.rel

    def test_failure_names_the_condition(self, monkeypatch):
        """A failed packed grade-2 test is explained by C5's witness
        reader, whose witness `NotCoherent` carries."""
        pol = load("fix_e").polarities["G"]
        lanes = polarity._Frame.lanes.func

        def stray(self):
            out = lanes(self)
            out.beside = -1
            return out

        monkeypatch.setattr(polarity._Frame, "lanes", property(stray))
        monkeypatch.setattr(
            polarity._Frame, "c5", lambda self, m, ry: ("u", "v", "w")
        )
        with pytest.raises(NotCoherent, match="C5") as err:
            r_l(pol.ex, pol.ey)
        assert err.value.witness == ("u", "v", "w")

    def test_unexplained_failure_raises_under_optimize(self):
        """A packed grade that no condition's mask test explains is a
        disagreement between the two, not a certified slice relation or a
        report."""
        script = textwrap.dedent(
            """
            import sys
            from polab import polarity
            from polab.errors import LawViolation
            from polab.fixtures import load

            assert sys.flags.optimize
            pol = load("fix_e").polarities["G"]
            polarity._Frame.mask_level = lambda self, m, upto=3: 1
            for run in (lambda: polarity.r_l(pol.ex, pol.ey), lambda: polarity.check_coherence(pol)):
                try:
                    run()
                except LawViolation as err:
                    level, rows = err.witness
                    print(err.law, level, len(rows))
            sys.exit(3)
            """
        )
        done = run_optimized(script)
        assert done.returncode == 3, done.stdout + done.stderr
        pol = load("fix_e").polarities["G"]
        assert done.stdout == ("packed-grade 1 %d\n" % len(pol.x)) * 2

    def test_reader_without_a_witness_raises_under_optimize(self):
        """A failed mask test whose witness reader finds nothing raises
        `LawViolation`: C5's and C6's readers, which read bit-rows, are
        asked on the first seeded polarity failing their condition with
        bit-rows that hold no pair, and name the condition; C1's and C2's
        scans find no witness in bit-rows that hold every pair, and the
        report of the first polarity below grade 0, read on such rows,
        names its grade."""
        script = textwrap.dedent(
            """
            import random
            import sys
            from polab.errors import LawViolation
            from polab.randgen import random_extension_polarity

            assert sys.flags.optimize
            pols = [random_extension_polarity(random.Random(k), 3) for k in range(200)]
            for name, side in (("c5", 1), ("c6", 0)):
                pol = next(p for p in pols if getattr(p._frame, name)(p._mask, p._rows[side]))
                fr, m = pol._frame, pol._mask
                try:
                    getattr(fr, name)(m, [0] * len((fr.xs, fr.ys)[side]))
                except LawViolation as err:
                    print(name, err.law, err.witness[0], err.witness[1] == m)
            pol = next(p for p in pols if p._frame.mask_level(p._mask) is None)
            fr, nx, ny = pol._frame, len(pol.x), len(pol.y)
            try:
                fr.report(pol._mask, ([(1 << ny) - 1] * nx, [(1 << nx) - 1] * ny))
            except LawViolation as err:
                print("report", err.law, err.witness[0])
            sys.exit(3)
            """
        )
        done = run_optimized(script)
        assert done.returncode == 3, done.stdout + done.stderr
        assert done.stdout.splitlines() == [
            "c5 packed-grade C5 True", "c6 packed-grade C6 True", "report packed-grade None"
        ]


class TestSaturationMemo:
    def test_built_and_certified_once_per_polarity(self, monkeypatch):
        """Asking twice for the saturation of one polarity returns the
        kept relation without a second certificate; a polarity sharing
        the frame with another relation gets its own."""
        certified = []
        real = polarity.is_n_preorder

        def counting(pol, rel, n):
            certified.append(n)
            return real(pol, rel, n)

        monkeypatch.setattr(polarity, "is_n_preorder", counting)
        rng = random.Random(33)
        for k in range(60):
            pol = random_extension_polarity(rng, 1 + k % 4)
            del certified[:]
            first = polarity.r_hat_m(pol)
            assert polarity.r_hat_m(pol) is first
            assert len(certified) <= 1
            other = pol.with_relation(
                {(a, b) for a in pol.x.elements for b in pol.y.elements if rng.random() < 0.5}
            )
            fresh = ExtensionPolarity(other.base, other.ex, other.ey, other.rel)
            assert polarity.r_hat_m(other) == polarity.r_hat_m(fresh)
            assert polarity.r_hat_m(pol) == first

    def test_certificate_raises_under_optimize(self):
        script = textwrap.dedent(
            """
            import sys
            from polab import polarity
            from polab.errors import LawViolation
            from polab.fixtures import load

            assert sys.flags.optimize
            polarity.is_n_preorder = lambda pol, rel, n: polarity.NPreorderVerdict(
                False, "P1", ("w",)
            )
            try:
                polarity.r_hat_m(load("fix_e").polarities["G"])
            except LawViolation as err:
                print(err.law, err.witness)
                sys.exit(3)
            """
        )
        done = run_optimized(script)
        assert done.returncode == 3, done.stdout + done.stderr
        assert done.stdout == "grade-1 ('P1', ('w',))\n"


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
        """Only an uncapped walk is gated: a capped one has polynomial
        delay, so on a 16-element carrier it returns its results."""
        pol = identity_polarity(Poset.antichain("abcdefgh"))
        with pytest.raises(CarrierTooLarge):
            enumerate_n_preorders(pol, 0, max_carrier=7)
        with pytest.raises(CarrierTooLarge):
            enumerate_n_preorders(pol, 0)
        res = enumerate_n_preorders(pol, 0, cap=3, max_carrier=7)
        assert res.truncated and len(res) == 3
        for u in res:
            assert is_n_preorder(pol, u, 0).ok

    def test_carrier_gate_variable_is_checked(self):
        """An explicit `max_carrier` must be a non-negative integer;
        anything else is refused with its name, before any gate is
        applied."""
        pol = identity_polarity(Poset.antichain("a"))
        assert polarity.carrier_gate() == polarity.DEFAULT_MAX_CARRIER
        assert polarity.carrier_gate(5) == 5
        assert len(enumerate_n_preorders(pol, 3, max_carrier=2)) == 1
        for bad in (-3, True, 2.5, "7"):
            with pytest.raises(ValueError, match="max_carrier must be a non-negative integer"):
                enumerate_n_preorders(pol, 0, max_carrier=bad)

    def test_cap_marks_truncation(self):
        pol = identity_polarity(Poset.antichain("abc"))
        res = enumerate_n_preorders(pol, 0, cap=1)
        assert res.truncated and len(res) == 1
        assert not enumerate_n_preorders(pol, 0, cap=0).preorders

    def test_grade_and_cap_are_checked(self):
        """A grade outside 0 to 3, or one that is not an int (a bool
        included), and a negative cap are refused rather than read as some
        other search."""
        pol = identity_polarity(Poset.antichain("ab"))
        for bad in (7, -1, 1.5, "1", False):
            with pytest.raises(ValueError, match="grade"):
                enumerate_n_preorders(pol, bad, cap=1)
        with pytest.raises(ValueError, match="cap"):
            enumerate_n_preorders(pol, 0, cap=-1)

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

    def test_z_yx_alt_is_the_literal_loop(self):
        """`_Frame.z_yx_alt` holds (y, x) exactly when every base element
        sent below y on the right is below every one sent above x on the
        left: the loop over base pairs, on seeded Galois polarities."""
        rng = random.Random(19)
        for k in range(200):
            pol = random_galois_polarity(rng, 1 + k % 6)
            P, X, Y = pol.base, pol.x, pol.y
            want = [
                sum(
                    1 << i
                    for i, x in enumerate(X.elements)
                    if all(
                        P.leq(a, b)
                        for a in P.elements if Y.leq(pol.ey(a), y)
                        for b in P.elements if X.leq(x, pol.ex(b))
                    )
                )
                for y in Y.elements
            ]
            assert pol._frame.z_yx_alt() == want


class TestPreorderClauses:
    def test_grades_below_three_build_no_realizable_meets(self):
        """The clause tables below grade 3 hold no P4 or P5: grading and
        enumerating at grades 0 to 2 leave `z_s` and `z_t` unbuilt, and
        grade 3 builds them."""
        drawn = random_galois_polarity(random.Random(5), 3)
        pol = ExtensionPolarity(drawn.base, drawn.ex, drawn.ey, drawn.rel)
        rel = polarity.r_hat_m(pol).closed()
        for n in range(3):
            assert is_n_preorder(pol, rel, n).ok
            enumerate_n_preorders(pol, n, cap=1)
        kept = pol._frame.__dict__.keys()
        assert not {"meets", "joins", "z_s", "z_t", "back_clauses"} & kept
        is_n_preorder(pol, rel, 3)
        assert {"z_s", "z_t", "back_clauses"} <= kept

    def test_clause_tables_are_built_once_per_polarity_and_grade(self):
        """Each call reads P1 kept on its polarity and the grade's clauses
        kept on its frame; a polarity sharing the frame with another
        relation builds its own P1."""
        pol = load("fix_a").polarities["G"]
        tables = [polarity._clauses(pol, n) for n in range(4)]
        for n in range(4):
            assert all(map(operator.is_, polarity._clauses(pol, n), tables[n]))
        assert [len(t) for t in tables] == [3, 4, 6, 8]
        other = pol.with_relation(frozenset())
        assert polarity._clauses(other, 2)[1:] == tables[2][1:]
        assert polarity._clauses(other, 2)[0] == ("P1", 0, tables[2][0][1] | tables[2][0][2])

    def test_reflexivity_clause(self):
        pol = load("fix_a").polarities["G"]
        v = is_n_preorder(pol, UnionPreorder.from_pairs(pol.carrier(), []), 0)
        assert not v.ok and v.clause == "reflexive"

    def test_cross_agreement_clause(self):
        pol = load("fix_a").polarities["G"]
        carrier = pol.carrier()
        pairs = [(e, e) for e in carrier]
        xs, ys = pol.x.elements, pol.y.elements
        pairs += [(tag_x(a), tag_x(b)) for a in xs for b in xs if pol.x.leq(a, b)]
        pairs += [(tag_y(a), tag_y(b)) for a in ys for b in ys if pol.y.leq(a, b)]
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
        for bad in (4, 1.5, 1.0, None, True):
            with pytest.raises(ValueError, match="grade must be an int from 0 to 3, got"):
                is_n_preorder(pol, r_zero(pol).closed(), bad)

    def test_side_witness_ignores_the_hash_seed(self):
        """Relations missing several left pairs, then several right pairs,
        name the first missing pair in carrier order under every
        PYTHONHASHSEED."""
        script = textwrap.dedent(
            """
            from polab.order import Extension, Poset, UnionPreorder, tag_x, tag_y
            from polab.polarity import ExtensionPolarity, is_n_preorder, r_l

            ident = Extension.identity(Poset.from_pairs("abcde", zip("abcd", "bcde")))
            pol = ExtensionPolarity(ident.base, ident, ident, r_l(ident, ident))
            carrier = pol.carrier()
            pairs = [(e, e) for e in carrier]
            pairs += [(tag_x(a), tag_y(b)) for a, b in pol.rel]
            for rel in (
                UnionPreorder.from_pairs(carrier, pairs),
                UnionPreorder.from_pairs(
                    carrier,
                    pairs + [(tag_x(a), tag_x(b)) for a in "abcde" for b in "abcde" if pol.x.leq(a, b)],
                ),
            ):
                v = is_n_preorder(pol, rel, 0)
                print(v.clause, v.witness)
            """
        )
        outs = set()
        for seed in ("0", "1", "7"):
            done = run_optimized(script, optimize=False, PYTHONHASHSEED=seed)
            assert done.returncode == 0, done.stderr
            outs.add(done.stdout)
        assert outs == {"P2 ('a', 'b')\nP3 ('a', 'b')\n"}

    def test_packed_route_is_the_clause_walk_and_the_oracle(self):
        """On seeded polarities of every kind, the canonical relations
        unclosed and closed, each with one absent pair within a side added
        (and closed again) and one present pair taken out: `is_n_preorder`
        gives the verdict, clause and witness of the naive oracle's clause
        walk at grades 0 to 3."""
        from polab.oracles import oracle_is_n_preorder

        rng = random.Random(43)
        seen, cases = set(), 0
        for k in range(100):
            size, kind = 1 + k % 5, k // 5 % 3
            if kind == 0:
                pol = random_extension_polarity(rng, size)
            elif kind == 1:
                pol = random_galois_polarity(rng, size)
            else:
                pol = random_context(rng, size, galois=True).inner
            n_el = len(pol.carrier())
            for builder in (r_zero, polarity.r_hat_m, r_hat_g):
                base = builder(pol)
                for rel in (base, base.closed()):
                    rows = list(rel.rows)
                    i, j = rng.randrange(n_el), rng.randrange(n_el)
                    side = range(len(pol.x)) if i < len(pol.x) else range(len(pol.x), n_el)
                    absent = [q for q in side if not rows[i] >> q & 1]
                    present = [q for q in range(n_el) if rows[j] >> q & 1]
                    variants = [rel]
                    if absent:
                        added = rows[:i] + [rows[i] | 1 << rng.choice(absent)] + rows[i + 1 :]
                        added = UnionPreorder(rel.carrier, added)
                        variants += [added, added.closed()]
                    if present:
                        cut = rows[:j] + [rows[j] & ~(1 << rng.choice(present))] + rows[j + 1 :]
                        variants.append(UnionPreorder(rel.carrier, cut))
                    for r in variants:
                        for n in range(4):
                            got = is_n_preorder(pol, r, n)
                            assert got == oracle_is_n_preorder(pol, r, n), (k, builder.__name__, n)
                            seen.add(got.clause)
                            cases += 1
        # Seeded perturbations rarely fail reflectY alone: a right side of
        # two incomparable elements related by the preorder does.
        right = Poset.antichain(("b", "c"))
        empty = Poset.antichain(())
        pol = ExtensionPolarity(
            empty,
            Extension(MonotoneMap(empty, Poset.antichain(("a",)), {})),
            Extension(MonotoneMap(empty, right, {})),
            (),
        )
        pairs = [(e, e) for e in pol.carrier()] + [(tag_y("b"), tag_y("c"))]
        got = is_n_preorder(pol, UnionPreorder.from_pairs(pol.carrier(), pairs), 2)
        assert got == polarity.NPreorderVerdict(False, "reflectY", ("b", "c"))
        seen.add(got.clause)
        assert cases > 4000
        assert seen == {
            None, "reflexive", "transitive", "P1", "P2", "P3", "commutation",
            "reflectX", "reflectY", "P4", "P5",
        }


class TestOneFrame:
    def test_one_frame_per_polarity(self, monkeypatch):
        """Grading a polarity, building its canonical relations, testing
        them at every grade, enumerating and, for a Galois polarity,
        building its structure construct its condition frame once."""
        built = []
        init = polarity._Frame.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        rng = random.Random(31)
        drawn = [random_extension_polarity(rng, 1 + k % 4) for k in range(20)]
        drawn += [random_galois_polarity(rng, 1 + k % 4) for k in range(20)]
        monkeypatch.setattr(polarity._Frame, "__init__", counting)
        for pol in drawn:
            pol = ExtensionPolarity(pol.base, pol.ex, pol.ey, pol.rel)
            before = len(built)
            check_coherence(pol)
            for builder in CANONICAL_BUILDERS:
                rel = builder(pol)
                for n in range(4):
                    is_n_preorder(pol, rel, n)
                    is_n_preorder(pol, rel.closed(), n)
            if len(pol.carrier()) <= 7:
                for n in range(4):
                    enumerate_n_preorders(pol, n)
            if is_galois(pol):
                structure_of(pol)
            assert len(built) - before == 1

    def test_a_draw_builds_one_frame(self, monkeypatch):
        """Each drawn polarity, Galois or not, is certified on the one frame
        it keeps, grading builds no other, and a change of relation keeps
        it; the draw equals the polarity its pairs give the constructor."""
        built = []
        init = polarity._Frame.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(polarity._Frame, "__init__", counting)
        rng = random.Random(43)
        for k in range(120):
            draw = random_galois_polarity if k % 2 else random_extension_polarity
            before = len(built)
            pol = draw(rng, 1 + k % 5)
            check_coherence(pol)
            assert len(built) - before == 1 and pol._frame is built[-1]
            assert pol.with_relation(()).carrier() is pol.carrier()
            assert pol == ExtensionPolarity(pol.base, pol.ex, pol.ey, pol.rel)
            assert len(built) - before == 1

    def test_kept_state_leaves_no_cyclic_garbage(self):
        """A polarity, its frame and the frame's flip are freed by
        reference counting alone, so grading leaves the cyclic garbage
        collector nothing to find."""
        rng = random.Random(37)
        drawn = [random_galois_polarity(rng, 1 + k % 4) for k in range(10)]
        gc.collect()
        gc.disable()
        try:
            for pol in drawn:
                pol = ExtensionPolarity(pol.base, pol.ex, pol.ey, pol.rel)
                check_coherence(pol)
                for builder in CANONICAL_BUILDERS:
                    builder(pol)
            del pol
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_a_polarity_is_its_pair_mask():
    """Rebuilt from its pairs reversed, with a pair repeated, or from a
    generator, a drawn polarity is equal, hashes alike and reads back the
    same `rel`, a frozenset; so does a seeded subset of X × Y, given in
    any order, read back as that subset.  A pair fewer or more makes the
    polarity unequal."""
    rng = random.Random(45)
    for k in range(300):
        pol = random_extension_polarity(rng, 1 + k % 4)
        pairs = list(pol.rel)
        cross = [(x, y) for x in pol.x.elements for y in pol.y.elements]
        subset = [p for p in cross if rng.random() < 0.5]
        rng.shuffle(subset)
        for given, want in ((pairs[::-1], pol), (pairs + pairs[:1], pol), (iter(pairs), pol),
                            (subset, pol.with_relation(subset[::-1]))):
            again = ExtensionPolarity(pol.base, pol.ex, pol.ey, given)
            assert again == want and hash(again) == hash(want)
            assert type(again.rel) is frozenset and again.rel == want.rel
        assert pol.with_relation(subset).rel == frozenset(subset)
        if pairs:
            assert pol.with_relation(pairs[1:]) != pol
        extra = [p for p in cross if p not in pol.rel]
        if extra:
            assert pol.with_relation(pairs + extra[:1]) != pol


class TestMaskOnAFrame:
    # On the frame of the chain a < b with both sides itself (4 pairs), the
    # masks `_of_mask` refuses, and the frame whose right side extends
    # another base (mask 0); the last mask fits.
    REFUSALS = textwrap.dedent(
        """
        from polab.errors import PolabError
        from polab.order import Extension, Poset
        from polab.polarity import ExtensionPolarity, _Frame

        def refusals():
            ab, cd = (Poset.from_pairs(e, [tuple(e)]) for e in ("ab", "cd"))
            e = Extension.identity(ab)
            fr, off = _Frame(ab, e, e), _Frame(ab, e, Extension.identity(cd))
            out = []
            for frame, mask in ((fr, -1), (fr, 1 << 4), (fr, 1 << 4 | 1), (off, 0), (fr, 15)):
                try:
                    out.append(ExtensionPolarity._of_mask(frame, mask)._mask)
                except PolabError as err:
                    out.append(type(err).__name__)
            return out
        """
    )

    @pytest.mark.parametrize("optimize", [False, True], ids=["in_process", "optimized"])
    def test_a_mask_off_its_frame_is_refused(self, optimize):
        """`_of_mask` refuses a negative mask, a bit past X × Y and a frame
        whose sides extend different bases with `CarrierMismatch`, also
        under `python -O`."""
        want = ["CarrierMismatch"] * 4 + [15]
        if not optimize:
            space = {}
            exec(self.REFUSALS, space)
            assert space["refusals"]() == want
            return
        done = run_optimized(self.REFUSALS + "print(refusals())")
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.strip() == repr(want)


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


def _graded_frames(seed, count):
    """Seeded frames with a polarity maker each: those of
    `random_extension_polarity` and `random_galois_polarity`, and the
    inner and outer frames of `random_context`, base sizes 1 to 3."""
    rng = random.Random(seed)
    for k in range(count):
        size = 1 + k % 3
        pol = random_extension_polarity(rng, size)
        yield pol._frame, pol.with_relation
        pol = random_galois_polarity(rng, size)
        yield pol._frame, pol.with_relation
        ctx = random_context(rng, size)
        yield ctx.inner._frame, ctx.inner.with_relation
        yield ctx._outer_frame, ctx.outer


def _frame_masks(rng, fr):
    """Random pair masks of the frame with their down-closures and their
    least C1-to-C4 relations, the slice relation and the full relation."""
    everything = (1 << len(fr.xs) * len(fr.ys)) - 1
    drawn = [rng.getrandbits(everything.bit_length()) & rng.getrandbits(everything.bit_length())
             for _ in range(3)]
    closed = [fr.lanes.down_close(m) for m in drawn]
    return drawn + closed + [_least_graded(fr, m) for m in drawn] + [fr.slice_mask(), everything]


class TestPackedGrade:
    """The grade and the report decided on the pair mask against the
    naive oracles."""

    def test_matches_the_oracles(self):
        """At every cap, the packed grade is the oracle's, and the one the
        oracle's conditions give (the highest grade whose conditions, and
        those of every grade below, all hold); the report holds every
        condition's verdict and witness as the oracle reads them."""
        rng = random.Random(43)
        seen = set()
        for fr, polarity_with in _graded_frames(seed=43, count=40):
            for m in _frame_masks(rng, fr):
                rx, ry = fr.rows(m)
                pol = polarity_with(fr.pairs(m))
                assert pol._mask == m and pol._rows == (tuple(rx), tuple(ry))
                want = naive_coherence_level(pol)
                seen.add(want)
                oracle = oracle_report_conditions(pol)
                looped = None
                for n in range(4):
                    if not all(oracle[name][0] for name in CONDITION_NAMES[2 * n : 2 * n + 2]):
                        break
                    looped = n
                assert looped == want, m
                for upto in range(4):
                    capped = None if want is None else min(want, upto)
                    assert fr.mask_level(m, upto) == capped, (m, upto)
                rep = fr.report(m)
                assert fr.mask_grade(m) == (rep.level, is_galois(pol)) == (rep.level, rep.galois)
                assert rep.conditions == oracle, m
        assert seen == {None, 0, 1, 2, 3}

    def test_readers_run_only_above_the_packed_grade(self, monkeypatch):
        """With every C-condition reader patched to raise, a grade-3
        polarity still gets its report, and every polarity its level."""
        rng = random.Random(59)
        pols = [random_galois_polarity(rng, 1 + k % 4) for k in range(20)]
        pols += [random_extension_polarity(rng, 1 + k % 5) for k in range(200)]
        wants = [(coherence_level(pol), check_coherence(pol)) for pol in pols]

        def refuse(self, *args):
            raise AssertionError("a condition was read below the packed grade")

        for reader in ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"):
            monkeypatch.setattr(polarity._Frame, reader, refuse)
        graded = 0
        for pol, (level, rep) in zip(pols, wants):
            pol = ExtensionPolarity(pol.base, pol.ex, pol.ey, pol.rel)
            assert coherence_level(pol) == level
            if level == 3:
                assert check_coherence(pol) == rep
                graded += 1
        assert graded >= 20

    def test_c8_is_read_only_past_c7(self, monkeypatch):
        """A grade that stops at C7 or below never reads C8's pairs, so it
        never builds the frame's joins."""
        read = []
        c8 = polarity._Frame.forbidden_c8.func

        def counting(self):
            read.append(self)
            return c8(self)

        monkeypatch.setattr(polarity._Frame, "forbidden_c8", property(counting))
        rng = random.Random(47)
        stopped = 0
        for fr, _ in _graded_frames(seed=47, count=40):
            for m in _frame_masks(rng, fr):
                del read[:]
                level = fr.mask_level(m)
                past_c7 = level == 3 or level == 2 and not m & fr.forbidden_c7
                assert bool(read) == past_c7, (m, level)
                stopped += level == 2 and not past_c7
        assert stopped >= 5

    def test_c5_witness_matches_the_loop(self):
        """`_Frame.c5` and `_Frame.c6` decide on one AND with the pairs
        beside a pivot and find their witness without an inner loop: the
        same witness, in the same order, as the loop over the rows
        holding e_Y(k) (C5) and over the columns e_X(k) is related to
        (C6)."""

        def looped(fr, rx, ry):
            for k, (xi, yi) in enumerate(zip(fr.exi, fr.eyi)):
                need = fr.xrows[xi]
                for i1 in _mask_iter(ry[yi]):
                    missing = need & ~fr.xrows[i1]
                    if missing:
                        i2 = next(_mask_iter(missing))
                        return fr.xs[i1], fr.ps[k], fr.xs[i2]
            return None

        def looped_c6(fr, rx, ry):
            for k, (xi, yi) in enumerate(zip(fr.exi, fr.eyi)):
                need = fr.ycols[yi]
                for j2 in _mask_iter(rx[xi]):
                    missing = need & ~fr.ycols[j2]
                    if missing:
                        return fr.ps[k], fr.ys[next(_mask_iter(missing))], fr.ys[j2]
            return None

        rng = random.Random(53)
        failed = 0
        for fr, _ in _graded_frames(seed=53, count=20):
            for m in _frame_masks(rng, fr):
                rx, ry = fr.rows(m)
                got = fr.c5(m, ry)
                assert got == looped(fr, rx, ry)
                assert fr.c6(m, rx) == looped_c6(fr, rx, ry)
                failed += got is not None
        assert failed >= 20


def test_reports_are_pinned():
    """Every field of the reports of 400 seeded polarities, 3264 failing
    conditions among them, hashes as pinned: a changed verdict, witness
    or witness order shows here."""
    rng = random.Random(0)
    digest, failing = hashlib.sha256(), 0
    for k in range(400):
        rep = check_coherence(random_extension_polarity(rng, 1 + k % 5))
        fields = (rep.level, rep.galois, rep.entangled, rep.meet_side, rep.join_side, rep.s1, rep.s2)
        digest.update(repr(fields + (tuple(rep.conditions.items()),)).encode())
        failing += sum(not ok for ok, _ in rep.conditions.values())
    assert (digest.hexdigest()[:16], failing) == ("7020f31835da9716", 3264)


def _draws_digest(cases):
    """The hash of the serialized documents of polarities or contexts, a
    context's side extensions named XX and YY, ix and iy."""
    digest = hashlib.sha256()
    for case in cases:
        digest.update(serialize(document_of(case)).encode())
    return digest.hexdigest()[:16]


def _cold_draws():
    """Empty the memos of `randgen`'s cut draws."""
    randgen._closed_cuts.cache_clear()
    randgen._cut_draw.cache_clear()


def _seeded_contexts():
    rng = random.Random(1)
    return [random_context(rng, 1 + k % 4, galois=k % 2 == 1) for k in range(300)]


def test_draw_streams_are_pinned():
    """The serialized documents of 300 seeded Galois polarities, and of
    300 seeded contexts, each its inner polarity and both side
    extensions, hash as pinned, drawn on empty memos and again on full
    ones: a draw that reads the random source in another order, names
    an element otherwise or depends on what an earlier draw kept shows
    here."""

    def digests():
        rng = random.Random(0)
        galois = [random_galois_polarity(rng, 1 + k % 6) for k in range(300)]
        return _draws_digest(galois), _draws_digest(_seeded_contexts())

    pins = ("d4feca6a1a72b485", "e77035e8feb9757c")
    _cold_draws()
    assert digests() == pins
    assert digests() == pins


def test_checks_leave_shared_draws_as_drawn():
    """Equal cut draws share one extension.  Every transfer check run on
    300 seeded contexts leaves them serializing as a redraw on empty
    memos does: no check writes into a draw another context holds."""
    warm = _seeded_contexts()
    for ctx in warm:
        check_extension_preservation(ctx)
        sbar = extend_relation(ctx)
        check_restriction_preservation(ctx, sbar)
        slice_extension_is_slice(ctx)
        relation_lattice_adjunction(ctx)
        outer = ctx.outer(sbar)
        level = coherence_level(outer)
        if level is not None:
            phi_map(ctx, sbar, CANONICAL_BUILDERS[level](outer).closed())
    _cold_draws()
    cold = _seeded_contexts()
    assert [serialize(document_of(c)) for c in warm] == [serialize(document_of(c)) for c in cold]


# Per record: a sample, its field names, its defaults and the text its
# repr printed when the records were dataclasses.
RECORDS = [
    (CoherenceReport({"C1": (True, None)}, 3, True, True, False, False, True, None),
     "conditions level entangled meet_side join_side galois s1 s2", {},
     "CoherenceReport(conditions={'C1': (True, None)}, level=3, entangled=True, meet_side=True,"
     " join_side=False, galois=False, s1=True, s2=None)"),
    (NPreorderVerdict(False, "P1", ("a", "b")), "ok clause witness",
     {"clause": None, "witness": None},
     "NPreorderVerdict(ok=False, clause='P1', witness=('a', 'b'))"),
    (IntermediateStructure(1, 2, 3, 4), "quotient iota_x iota_y gamma", {},
     "IntermediateStructure(quotient=1, iota_x=2, iota_y=3, gamma=4)"),
    (ClauseReport(False, True, "guard conditions not met"), "applicable holds note", {"note": ""},
     "ClauseReport(applicable=False, holds=True, note='guard conditions not met')"),
    (AdjunctionReport(3, True, 4, False, 7, False, ("counit", "x", "y")),
     "unit_checked unit_holds counit_checked counit_holds law_checked law_holds witness", {},
     "AdjunctionReport(unit_checked=3, unit_holds=True, counit_checked=4, counit_holds=False,"
     " law_checked=7, law_holds=False, witness=('counit', 'x', 'y'))"),
    (MorphismDecl("G", "H", "hx", "hp", "hy"), "source target hx hp hy", {},
     "MorphismDecl(source='G', target='H', hx='hx', hp='hp', hy='hy')"),
    (CheckResult("fix_a", "galois", False), "fixture label ok", {},
     "CheckResult(fixture='fix_a', label='galois', ok=False)"),
    (Fixture("fix_a", "one point", len), "name summary check", {},
     "Fixture(name='fix_a', summary='one point', check=<built-in function len>)"),
]


class TestRecords:
    @pytest.mark.parametrize(
        "sample, fields, defaults, text", RECORDS, ids=[type(r[0]).__name__ for r in RECORDS]
    )
    def test_fields_defaults_equality_and_repr(self, sample, fields, defaults, text):
        record = type(sample)
        assert record._fields == tuple(fields.split())
        assert record._field_defaults == defaults
        assert repr(sample) == text
        again = record(*sample)
        assert again == sample and again is not sample
        for name in record._fields:
            assert sample._replace(**{name: "changed"}) != sample, name
        assert not hasattr(sample, "__dict__")

    def test_defaults_fill_the_short_forms(self):
        assert NPreorderVerdict(True) == NPreorderVerdict(True, None, None)
        assert ClauseReport(True, False) == ClauseReport(True, False, "")

    def test_a_failed_verdict_is_false(self):
        assert bool(NPreorderVerdict(False)) is False
        assert bool(CheckResult("f", "l", False)) is False
        assert bool(NPreorderVerdict(True)) is True
        assert bool(CheckResult("f", "l", True)) is True

    def test_a_document_compares_its_stores_not_its_order(self):
        stores = ("posets", "maps", "polarities", "preorders", "morphisms", "completions")
        doc = Document(posets={"P": 1}, order=[("poset", "P")])
        assert doc == Document(posets={"P": 1}) and doc != "P"
        for store in stores:
            other = Document(posets={"P": 1})
            getattr(other, store)["Q"] = 2
            assert other != doc, store
        assert repr(doc) == (
            "Document(posets={'P': 1}, maps={}, polarities={}, preorders={}, morphisms={},"
            " completions={}, order=[('poset', 'P')])"
        )
        given = {}
        assert Document(maps=given).maps is given
        assert Document().posets is not Document().posets
        assert Document().order == [] and Document().order is not Document().order
        with pytest.raises(TypeError):
            Document(blocks={})

    def test_an_enumeration_result_is_its_preorders(self):
        found = EnumerationResult(("a", "b"), False)
        assert len(found) == 2 and list(found) == ["a", "b"]
        assert found == EnumerationResult(("a", "b"), False)
        assert found != EnumerationResult(("a", "b"), True)
        assert found != EnumerationResult(("a",), False)
        assert found != ("a", "b")
        assert repr(found) == "EnumerationResult(preorders=('a', 'b'), truncated=False)"
        walk = enumerate_n_preorders(load("fix_e").polarities["G"], 0, cap=2)
        assert len(walk) == len(walk.preorders) and list(walk) == list(walk.preorders)

    @pytest.mark.parametrize("optimize", [False, True], ids=["plain", "optimized"])
    def test_the_package_loads_no_dataclasses(self, optimize):
        """In a fresh interpreter, plain and under `python -O`, the command
        line and the oracles load none of `dataclasses` and the modules it
        brings, which a bare interpreter does not load either."""
        script = textwrap.dedent(
            """
            import sys
            import polab.cli, polab.oracles
            print(sorted(m for m in ("dataclasses", "inspect", "ast", "dis") if m in sys.modules))
            """
        )
        done = run_optimized(script, optimize=optimize)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.splitlines() == ["[]"]
