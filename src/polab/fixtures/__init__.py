"""Worked examples with known verdicts.

Each fixture, a namedtuple, is a document shipped with the package plus
a battery of named checks.  The checks recompute every advertised
verdict from scratch, so running the catalogue doubles as a regression
test for the whole library.  `Fixture.run` returns one `CheckResult`
namedtuple per labelled check, the last that the document reads back
from its serialized text, and never stops early; callers decide what a
failure means.
"""

from __future__ import annotations

from collections import namedtuple
from importlib import resources

from ..docformat import parse, serialize
from ..extend import ExtensionContext, extend_relation, restrict_relation
from ..morphisms import psi_of, roundtrip_holds
from ..order import (
    Extension,
    Quotient,
    is_join_extension,
    is_meet_extension,
    is_order_embedding,
    tag_x,
    tag_y,
)
from ..polarity import (
    check_coherence,
    coherence_level,
    is_galois,
    is_n_preorder,
    r_hat_m,
    r_l,
    r_zero,
    structure_of,
    unique_3preorder,
)


def load(name):
    """Parse the named fixture document from the package data."""
    text = resources.files(__package__).joinpath(name + ".pol").read_text(encoding="utf-8")
    return parse(text)


class CheckResult(namedtuple("CheckResult", "fixture label ok")):
    """One labelled check of a fixture, true when `ok`, as a tuple alone never is."""

    __slots__ = ()

    def __bool__(self):
        return self.ok


def _check_fix_a(doc):
    pol = doc.polarities["G"]
    r0 = r_zero(pol).closed()
    yield "coherence level 3", coherence_level(pol) == 3
    yield "galois", is_galois(pol)
    yield "closed base relation is a 2-preorder", is_n_preorder(pol, r0, 2).ok
    yield "closed base relation is not a 3-preorder", not is_n_preorder(pol, r0, 3).ok
    struct = structure_of(pol)
    yield "quotient collapses to a point", len(struct.quotient.poset.elements) == 1


def _check_fix_b(doc):
    pol = doc.polarities["G"]
    yield "coherence level 2", coherence_level(pol) == 2
    yield "image-meet condition fails", not check_coherence(pol).ok("C7")
    yield "left side is a meet extension", is_meet_extension(pol.ex)
    yield "right side is not a join extension", not is_join_extension(pol.ey)
    yield "relation is the slice relation", pol.rel == r_l(pol.ex, pol.ey)


def _check_fix_c(doc):
    pol = doc.polarities["G"]
    yield "coherence level 1", coherence_level(pol) == 1
    yield "left order reflection fails", not check_coherence(pol).ok("C5")
    quot = Quotient(r_hat_m(pol).closed())
    chain = quot.poset
    yield "first-grade quotient is a two-chain", (
        len(chain.elements) == 2
        and any(chain.leq(a, b) for a in chain.elements for b in chain.elements if a != b)
    )
    yield "extra pair lies outside the base order", ("p", "q") in pol.rel and not pol.base.leq("p", "q")


def _check_fix_d(doc):
    pol = doc.polarities["G"]
    plain = doc.polarities["Gslice"]
    yield "left side is a meet extension", is_meet_extension(pol.ex)
    yield "right side is a join extension", is_join_extension(pol.ey)
    yield "extra pair destroys all coherence", coherence_level(pol) is None
    yield "downward closure fails first", check_coherence(pol).witness("C1") == ("c", "x", "y2")
    # grade 0 would force c~y2, and grade 2 forbids it: with these sides
    # no coherent relation can contain x~y2 at all.
    forced = pol.with_relation(pol.rel | {("c", "y2"), ("d", "y2")})
    yield "forced closure stops at grade 1", coherence_level(forced) == 1
    yield "slice relation alone is galois", is_galois(plain)


def _check_fix_e(doc):
    pol = doc.polarities["G"]
    yield "galois", is_galois(pol)
    u3 = unique_3preorder(pol)
    yield "right midpoint sits below left", u3.rel(tag_y("y"), tag_x("x"))
    yield "left midpoint not below right", not u3.rel(tag_x("x"), tag_y("y"))
    q = doc.preorders["Q"]
    yield "incomparable-midpoint preorder has grade 2", is_n_preorder(pol, q, 2).ok
    yield "incomparable-midpoint preorder fails grade 3", not is_n_preorder(pol, q, 3).ok


def _check_fix_f(doc):
    pol = doc.polarities["G"]
    yield "coherence level 3", coherence_level(pol) == 3
    yield "not galois", not is_galois(pol)
    yield "right side is not a join extension", not is_join_extension(pol.ey)
    q2, q1 = doc.preorders["Q2"], doc.preorders["Q1"]
    yield "separating preorder has grade 2", is_n_preorder(pol, q2, 2).ok
    yield "separating preorder fails grade 3", not is_n_preorder(pol, q2, 3).ok
    yield "folded preorder has grade 1", is_n_preorder(pol, q1, 1).ok
    yield "folded preorder fails grade 2", not is_n_preorder(pol, q1, 2).ok


def _check_fix_g(doc):
    inner = doc.polarities["G"]
    ctx = ExtensionContext(inner, Extension(doc.maps["ix"]), Extension(doc.maps["iy"]))
    yield "inner galois", is_galois(inner)
    outer = ctx.outer(extend_relation(ctx))
    yield "saturated outer relation stops at grade 2", coherence_level(outer) == 2
    # the slice relation is the least coherent candidate, so grade 2
    # here rules out any 3-coherent relation on the larger carriers
    yield "outer slice relation stops at grade 2", (
        coherence_level(doc.polarities["Gslice"]) == 2
    )


def _check_fix_h(doc):
    inner, outer = doc.polarities["G"], doc.polarities["Gbad"]
    ctx = ExtensionContext(inner, Extension(doc.maps["id"]), Extension(doc.maps["iy"]))
    yield "outer relation is not 0-coherent", coherence_level(outer) is None
    yield "downward closure is the failure", not check_coherence(outer).ok("C1")
    readback = restrict_relation(ctx, outer.rel)
    yield "readback is the inner slice relation", readback == inner.rel
    yield "inner polarity is galois", is_galois(inner)
    again = extend_relation(
        ExtensionContext(
            inner.with_relation(readback),
            Extension(doc.maps["id"]),
            Extension(doc.maps["iy"]),
        )
    )
    yield "re-extension stays inside the outer relation", again <= outer.rel


def _check_fix_i(doc):
    inner, outer = doc.polarities["G"], doc.polarities["Gout"]
    ctx = ExtensionContext(inner, Extension(doc.maps["ix"]), Extension(doc.maps["iy"]))
    yield "outer polarity is galois", is_galois(outer)
    readback = restrict_relation(ctx, outer.rel)
    again = extend_relation(
        ExtensionContext(
            inner.with_relation(readback),
            Extension(doc.maps["ix"]),
            Extension(doc.maps["iy"]),
        )
    )
    yield "round trip loses the added pair", ("x", "y") in outer.rel and ("x", "y") not in again
    yield "round trip stays inside the outer relation", again <= outer.rel
    yield "round trip is strictly smaller", again < outer.rel


def _check_fix_j(doc):
    m = doc.build_morphism("m")
    psi = psi_of(m)
    yield "stable map is an isomorphism", is_order_embedding(psi) and psi.is_surjective()
    yield "left component is not surjective", (
        set(m.hx.assignment.values()) != set(m.target.x.elements)
    )
    yield "round trip recovers the morphism", roundtrip_holds(m)
    yield "morphism is not an isomorphism", not m.is_isomorphism()


class Fixture(namedtuple("Fixture", "name summary check")):
    __slots__ = ()

    def run(self):
        doc = load(self.name)
        checks = list(self.check(doc))
        checks.append(("document round-trips through serialize", parse(serialize(doc)) == doc))
        return [CheckResult(self.name, label, bool(ok)) for label, ok in checks]


CATALOGUE = (
    Fixture("fix_a", "one point per side over an empty base", _check_fix_a),
    Fixture("fix_b", "meet extension against a non join extension", _check_fix_b),
    Fixture("fix_c", "extra pair on identity sides breaks reflection", _check_fix_c),
    Fixture("fix_d", "extra pair between added points kills coherence", _check_fix_d),
    Fixture("fix_e", "symmetric midpoints forced into comparability", _check_fix_e),
    Fixture("fix_f", "grade 3 without galois via a disjoint chain", _check_fix_f),
    Fixture("fix_g", "pushout of a galois polarity stops at grade 2", _check_fix_g),
    Fixture("fix_h", "incoherent outer relation with a galois readback", _check_fix_h),
    Fixture("fix_i", "galois outer relation not recovered by round trip", _check_fix_i),
    Fixture("fix_j", "stable isomorphism from a non surjective morphism", _check_fix_j),
)
