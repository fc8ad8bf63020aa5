"""Command line surface.

One subcommand per task: coherence reports, canonical preorders,
completions and their decompositions, concept lattices, morphism
validation, the shipped example suite, and a seeded fuzzer.  Exit codes:
0 success, 1 a reported failure or law violation, 2 usage errors.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import fixtures
from .concepts import (
    concept_lattice,
    inclusion_preorder,
    upsilon_embedding,
    xi_embedding,
    z_doubleprime,
)
from .delta1 import (
    Delta1Completion,
    check_adjunction,
    counit_iso,
    delta_on_objects,
    gamma_on_objects,
    mediate,
    unit,
    universal_property,
)
from .docformat import Document, parse, serialize, to_dot
from .errors import LawViolation, MorphismInvalid, PolabError
from .extend import (
    ExtensionContext,
    check_extension_preservation,
    check_restriction_preservation,
    extend_relation,
    phi_map,
    restrict_relation,
    slice_extension_is_slice,
)
from .morphisms import PolarityMorphism, psi_of, roundtrip_holds, stable_roundtrip_holds
from .order import (
    Extension,
    Quotient,
    _lift,
    compose,
    macneille,
    tag_x,
    tag_y,
)
from .polarity import (
    CANONICAL_BUILDERS,
    CONDITION_NAMES,
    ExtensionPolarity,
    check_coherence,
    coherence_level,
    galois_via_S1S2,
    is_galois,
    is_n_preorder,
    r_hat_g,
    r_hat_m,
    r_l,
    r_zero,
    unique_3preorder,
)
from .randgen import (
    collapse_morphism,
    morphism_corpus,
    random_context,
    random_extension_polarity,
    random_galois_polarity,
    random_side_context,
)


def _load(path):
    return parse(Path(path).read_text())


def _pick(store, name, what):
    if name is not None:
        if name not in store:
            raise PolabError("no %s named %r in the document" % (what, name))
        return {name: store[name]}
    if not store:
        raise PolabError("document declares no %s" % what)
    return store


def document_of(case, name="G"):
    """A document of a polarity; of a context, with `ix: X -> XX`, `iy: Y -> YY`."""
    if isinstance(case, ExtensionContext):
        doc = document_of(case.inner, name)
        doc.posets.update(XX=case.ix.target, YY=case.iy.target)
        doc.maps.update(ix=case.ix.map, iy=case.iy.map)
        return doc
    return Document(
        posets={"P": case.base, "X": case.x, "Y": case.y},
        maps={"ex": case.ex.map, "ey": case.ey.map},
        polarities={name: case},
    )


def _fmt_witness(w):
    return "" if w is None else " witness=%r" % (w,)


def cmd_check(args):
    doc = _load(args.file)
    for name, pol in _pick(doc.polarities, args.polarity, "polarity").items():
        rep = check_coherence(pol)
        rows = [
            ("level", rep.level if rep.level is not None else "incoherent", None),
            ("galois", "yes" if rep.galois else "no", None),
            ("entangled", "yes" if rep.entangled else "no", None),
            ("meet-side", "yes" if rep.meet_side else "no", None),
            ("join-side", "yes" if rep.join_side else "no", None),
        ]
        for c in CONDITION_NAMES:
            ok, witness = rep.conditions[c]
            rows.append((c, "PASS" if ok else "FAIL", witness))
        if args.format == "tsv":
            for key, value, witness in rows:
                print("%s\t%s\t%s\t%s" % (name, key, value, "" if witness is None else witness))
        else:
            print("polarity %s" % name)
            for key, value, witness in rows:
                print("  %s %s%s" % (key, value, _fmt_witness(witness)))
    return 0


_KINDS = {"r0": r_zero, "rm": r_hat_m, "rg": r_hat_g}


def cmd_preorder(args):
    doc = _load(args.file)
    for name, pol in _pick(doc.polarities, args.polarity, "polarity").items():
        if args.kind == "rl":
            for a, b in sorted(r_l(pol.ex, pol.ey)):
                print("%s~%s" % (a, b))
            continue
        rel = _KINDS[args.kind](pol).closed()
        if args.quotient or args.dot:
            quot = Quotient(rel)
            filled = {
                quot.projection[("X", pol.ex(p))] for p in pol.base.elements
            }
            if args.dot:
                print(to_dot(quot.poset, name=name, filled=filled), end="")
            else:
                for a, b in sorted(quot.poset.covers(), key=repr):
                    print("%s < %s" % (a, b))
        else:
            for i, a in enumerate(rel.carrier):
                for j, b in enumerate(rel.carrier):
                    if i != j and rel.rows[i] >> j & 1:
                        print("%s.%s <= %s.%s" % (a[0], a[1], b[0], b[1]))
    return 0


def _lattice_doc(lat, name):
    labels = {e: "c%d" % k for k, e in enumerate(lat.elements)}
    return Document(posets={name: lat.relabel(labels.__getitem__)}), labels


def cmd_complete(args):
    doc = _load(args.file)
    for name, pol in _pick(doc.polarities, args.polarity, "polarity").items():
        d = gamma_on_objects(pol)
        out, labels = _lattice_doc(d.lattice, name + "_lattice")
        print(serialize(out), end="")
        for p in pol.base.elements:
            print("# %s -> %s" % (p, labels[d(p)]))
    return 0


def cmd_decompose(args):
    doc = _load(args.file)
    for name, d in _pick(doc.completions, args.completion, "completion").items():
        pol = delta_on_objects(Delta1Completion(d))
        print("completion %s generates:" % name)
        print("  left side %d elements, right side %d elements" % (len(pol.x), len(pol.y)))
        print("  level %s galois %s" % (coherence_level(pol), "yes" if is_galois(pol) else "no"))
        for a, b in sorted(pol.rel, key=repr):
            print("  %r ~ %r" % (a, b))
    return 0


def cmd_concept(args):
    doc = _load(args.file)
    for name, pol in _pick(doc.polarities, args.polarity, "polarity").items():
        lat = concept_lattice(pol)
        names = {
            mask: "{%s}" % ",".join(str(e) for e in lat.extent(mask))
            for mask in lat.poset.elements
        }
        print("concept lattice of %s: %d closed sets" % (name, len(lat.poset)))
        for a, b in sorted(lat.poset.covers(), key=lambda ab: (names[ab[0]], names[ab[1]])):
            print("  %s < %s" % (names[a], names[b]))
    return 0


def cmd_morphism(args):
    doc = _load(args.file)
    matches = [
        name
        for name, decl in doc.morphisms.items()
        if decl.source == args.source and decl.target == args.target
    ]
    if not matches:
        raise PolabError(
            "no declared morphism from %r to %r" % (args.source, args.target)
        )
    status = 0
    for name in matches:
        try:
            m = doc.build_morphism(name)
        except MorphismInvalid as err:
            print("morphism %s INVALID: %s" % (name, err))
            status = 1
            continue
        print(
            "morphism %s VALID embedding=%s isomorphism=%s roundtrip=%s"
            % (
                name,
                "yes" if m.is_embedding() else "no",
                "yes" if m.is_isomorphism() else "no",
                "yes" if roundtrip_holds(m) else "no",
            )
        )
    return status


def cmd_fixtures(args):
    status = 0
    for fixture in fixtures.CATALOGUE:
        if args.only is not None and fixture.name != args.only:
            continue
        try:
            results = fixture.run()
        except PolabError as err:
            print("%-8s %-52s %s" % (fixture.name, "loads and validates", "FAIL (%s)" % err))
            status = 1
            continue
        for r in results:
            print("%-8s %-52s %s" % (r.fixture, r.label, "PASS" if r.ok else "FAIL"))
            if not r.ok:
                status = 1
    return status


# -- fuzzing ---------------------------------------------------------------
# A law is a draw, `draw(rng, size)` -> a case, and a check, `check(case)`,
# which raises `LawViolation` or returns a finding's message or None.


def _sized(gen):
    return lambda rng, size: gen(rng, rng.randint(1, size))


def _law_coherence(pol):
    rep = check_coherence(pol)
    for n in range(4):
        want = rep.level is not None and rep.level >= n
        got = is_n_preorder(pol, CANONICAL_BUILDERS[n](pol).closed(), n).ok
        if want != got:
            raise LawViolation(
                "coherence", "grade %d disagrees with its canonical preorder" % n, pol
            )
    if rep.galois:
        unique_3preorder(pol)
    sides = rep.level is not None and rep.meet_side and rep.join_side
    if sides and galois_via_S1S2(pol) != rep.galois:
        raise LawViolation("coherence", "slice conditions disagree with the grade", pol)


def _law_slice(pol):
    if not galois_via_S1S2(pol):
        raise LawViolation("slice", "slice conditions disagree with the grade", pol)


# Clause 6 applies on side extensions of these, never on `random_context`.
_CLAUSE_6_SOURCES = (("fix_a", "G"), ("fix_j", "H"))


def _draw_extension(rng, size):
    if rng.random() < 0.25:
        fixture, name = rng.choice(_CLAUSE_6_SOURCES)
        return random_side_context(rng, fixtures.load(fixture).polarities[name])
    return random_context(rng, rng.randint(1, size))


def _law_extension(ctx):
    for grade, report in check_extension_preservation(ctx).items():
        if report.applicable and not report.holds:
            raise LawViolation("extension", "extension clause %s fails" % (grade,), report)
    if not slice_extension_is_slice(ctx):
        raise LawViolation("extension", "saturated slice relation is not the outer slice")


def _law_restriction(ctx):
    sbar = extend_relation(ctx)
    sub = restrict_relation(ctx, sbar)
    if not ctx.inner.rel <= sub:
        raise LawViolation(
            "restriction", "readback must contain the inner relation", ctx.inner.rel - sub
        )
    coherent = coherence_level(ctx.inner) is not None
    if (sub == ctx.inner.rel) != coherent:
        raise LawViolation("restriction", "readback equality marks coherence", sub - ctx.inner.rel)
    for grade, report in check_restriction_preservation(ctx, sbar).items():
        if report.applicable and not report.holds:
            raise LawViolation("restriction", "restriction clause %s fails" % (grade,), report)
    # The saturation's canonical preorder, pulled back, keeps its grades.
    outer = ctx.outer(sbar)
    level = coherence_level(outer)
    if level is not None:
        pre = CANONICAL_BUILDERS[level](outer).closed()
        for n, kept in phi_map(ctx, sbar, pre).grades.items():
            if not kept:
                raise LawViolation("restriction", "grade %d does not transfer down" % n, ctx)


def _law_roundtrip(pol):
    for m in (PolarityMorphism.identity(pol), collapse_morphism(pol)):
        if not roundtrip_holds(m):
            raise LawViolation("roundtrip", "morphism does not survive the round trip", m)
        if not stable_roundtrip_holds(psi_of(m), m.source, m.target):
            raise LawViolation("roundtrip", "stable map does not survive the round trip", m)


def _law_completion(pol):
    d = gamma_on_objects(pol)
    counit_iso(d)
    eta = unit(pol)
    ctx = ExtensionContext(pol, Extension(eta.hx), Extension(eta.hy))
    rbar = extend_relation(ctx)
    generated = eta.target.rel
    if not rbar <= generated:
        raise LawViolation(
            "completion",
            "saturation must stay inside the generated relation",
            rbar - generated,
        )
    if rbar < generated:
        return "generated relation strictly exceeds the saturation"
    return None


def _draw_corpus(rng, size):
    # Once each: the identities of the point and of one drawn polarity,
    # its collapse onto the point and, last, its unit.
    return list(dict.fromkeys(morphism_corpus(rng, count=5, base_size=size)))


def _law_adjunction(corpus):
    polarities = list(dict.fromkeys(p for m in corpus for p in (m.source, m.target)))
    # The last two pairs: the collapse and the unit after the identity.
    pairs = [(g, f) for g in corpus for f in corpus if f.target == g.source]
    check_adjunction(polarities, corpus, pairs[-2:])
    pol = corpus[-1].source
    rep = mediate(pol, gamma_on_objects(pol), unit(pol))
    if not (rep.factors and rep.unique):
        raise LawViolation("adjunction", "the unit must mediate itself uniquely", pol)
    # f completes the left side; g sends y to the join of the f-images of
    # the base elements below it, so the two agree on the base.
    f = macneille(pol.x).map
    g, _ = _lift(pol.ey.map, compose(f, pol.ex.map), pol.y.cols, f.target.rows)
    universal_property(pol, f, g)


def _law_concepts(pol):
    u = unique_3preorder(pol)
    if inclusion_preorder(pol) != u:
        raise LawViolation("concepts", "extent inclusion must give the unique 3-preorder", pol)
    got = z_doubleprime(pol, macneille(pol.x), macneille(pol.y))
    ys, xs = pol.y.elements, pol.x.elements
    if got != {(y, x) for y in ys for x in xs if u.rel(tag_y(y), tag_x(x))}:
        raise LawViolation("concepts", "the adjoints must read off the right-left block", pol)
    xi_embedding(pol)
    upsilon_embedding(pol)


_GALOIS = _sized(random_galois_polarity)
_LAWS = {
    "adjunction": (_draw_corpus, _law_adjunction),
    "concepts": (_GALOIS, _law_concepts),
    "coherence": (_sized(random_extension_polarity), _law_coherence),
    "slice": (_GALOIS, _law_slice),
    "extension": (_draw_extension, _law_extension),
    "restriction": (_sized(random_context), _law_restriction),
    "roundtrip": (_GALOIS, _law_roundtrip),
    "completion": (_GALOIS, _law_completion),
}


def cmd_fuzz(args):
    names = sorted(_LAWS) if args.check is None else args.check.split(",")
    for n in names:
        if n not in _LAWS:
            raise PolabError("unknown law %r (have: %s)" % (n, ", ".join(sorted(_LAWS))))
    rng = random.Random(args.seed)
    findings = 0
    for i in range(args.iters):
        law = names[i % len(names)]
        draw, check = _LAWS[law]
        case = None
        try:
            case = draw(rng, args.size)
            finding = check(case)
        except (AssertionError, PolabError) as err:
            print("law %r violated on iteration %d: %s" % (law, i, err))
            rerun = (args.seed, args.size, i + 1, ",".join(names))
            print("# rerun: polab fuzz --seed %d --size %d --iters %d --check %s" % rerun)
            if isinstance(case, (ExtensionPolarity, ExtensionContext)):
                print(serialize(document_of(case)), end="")
            return 1
        if finding is not None:
            findings += 1
            print("# finding %d: %s" % (findings, finding))
            if findings == 1 and isinstance(case, (ExtensionPolarity, ExtensionContext)):
                print(serialize(document_of(case)), end="")
    print("fuzz ok: %d iterations, laws: %s, findings: %d" % (args.iters, ",".join(names), findings))
    return 0


def _at_least(low):
    """An argparse type: an integer of at least `low`."""

    def count(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    return count


def _parser():
    p = argparse.ArgumentParser(prog="polab", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="coherence report for the polarities in a document")
    c.add_argument("file")
    c.add_argument("--polarity")
    c.add_argument("--format", choices=("text", "tsv"), default="text")
    c.set_defaults(run=cmd_check)

    c = sub.add_parser("preorder", help="canonical preorders and their quotients")
    c.add_argument("file")
    c.add_argument("--kind", choices=("r0", "rm", "rg", "rl"), required=True)
    c.add_argument("--polarity")
    c.add_argument("--quotient", action="store_true")
    c.add_argument("--dot", action="store_true")
    c.set_defaults(run=cmd_preorder)

    c = sub.add_parser("complete", help="the dense completion a Galois polarity generates")
    c.add_argument("file")
    c.add_argument("--polarity")
    c.set_defaults(run=cmd_complete)

    c = sub.add_parser("decompose", help="the polarity a dense completion generates")
    c.add_argument("file")
    c.add_argument("--completion")
    c.set_defaults(run=cmd_decompose)

    c = sub.add_parser("concept", help="the lattice of closed left-sets")
    c.add_argument("file")
    c.add_argument("--polarity")
    c.set_defaults(run=cmd_concept)

    c = sub.add_parser("morphism", help="validate a declared morphism")
    c.add_argument("file")
    c.add_argument("--from", dest="source", required=True)
    c.add_argument("--to", dest="target", required=True)
    c.set_defaults(run=cmd_morphism)

    c = sub.add_parser("fixtures", help="run the shipped example suite")
    c.add_argument("--only", choices=[fx.name for fx in fixtures.CATALOGUE])
    c.set_defaults(run=cmd_fixtures)

    c = sub.add_parser("fuzz", help="seeded random law checking")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--size", type=_at_least(1), required=True)
    c.add_argument("--iters", type=_at_least(0), required=True)
    c.add_argument("--check")
    c.set_defaults(run=cmd_fuzz)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except PolabError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
