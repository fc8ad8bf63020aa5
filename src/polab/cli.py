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

from .concepts import concept_lattice
from .delta1 import Delta1Completion, counit_iso, delta_on_objects, gamma_on_objects, unit
from .docformat import Document, parse, serialize, to_dot
from .errors import MorphismInvalid, PolabError
from .extend import (
    ExtensionContext,
    check_extension_preservation,
    check_restriction_preservation,
    extend_relation,
    restrict_relation,
    slice_extension_is_slice,
)
from .morphisms import roundtrip_holds
from .order import Extension, Quotient, is_join_extension, is_meet_extension
from .polarity import (
    CANONICAL_BUILDERS,
    CONDITION_NAMES,
    check_coherence,
    coherence_level,
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
    random_context,
    random_extension_polarity,
    random_galois_polarity,
    random_poset,
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


def document_of(pol, name="G"):
    """Wrap a bare polarity in a document so it can be serialized."""
    doc = Document()
    doc.posets["P"] = pol.base
    doc.posets["X"] = pol.x
    doc.posets["Y"] = pol.y
    doc.maps["ex"] = pol.ex.map
    doc.maps["ey"] = pol.ey.map
    doc.polarities[name] = pol
    return doc


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
    doc = Document()
    doc.posets[name] = lat.relabel(labels.__getitem__)
    return doc, labels


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
    from . import fixtures

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


def _law_coherence(rng, size):
    pol = random_extension_polarity(rng, rng.randint(1, size))
    level = coherence_level(pol)
    for n in range(4):
        want = level is not None and level >= n
        got = is_n_preorder(pol, CANONICAL_BUILDERS[n](pol).closed(), n).ok
        assert want == got, "grade %d disagrees with its canonical preorder" % n
    if is_galois(pol):
        unique_3preorder(pol)
    return pol


def _law_slice(rng, size):
    base = random_poset(rng, rng.randint(1, size))
    pol = random_galois_polarity(rng, rng.randint(1, size))
    assert is_meet_extension(pol.ex) and is_join_extension(pol.ey)
    assert coherence_level(pol) == 3
    return pol


def _law_extension(rng, size):
    ctx = random_context(rng, rng.randint(1, min(size, 3)))
    for grade, report in check_extension_preservation(ctx).items():
        if report.applicable and not report.holds:
            raise PolabError("extension clause %s fails" % (grade,), report)
    if not slice_extension_is_slice(ctx):
        raise PolabError("saturated slice relation is not the outer slice")
    return ctx.inner


def _law_restriction(rng, size):
    ctx = random_context(rng, rng.randint(1, min(size, 3)))
    sbar = extend_relation(ctx)
    sub = restrict_relation(ctx, sbar)
    if not ctx.inner.rel <= sub:
        raise PolabError("readback must contain the inner relation", ctx.inner.rel - sub)
    coherent = coherence_level(ctx.inner) is not None
    if (sub == ctx.inner.rel) != coherent:
        raise PolabError("readback equality marks coherence", sub - ctx.inner.rel)
    for grade, report in check_restriction_preservation(ctx, sbar).items():
        if report.applicable and not report.holds:
            raise PolabError("restriction clause %s fails" % (grade,), report)
    return ctx.inner


def _law_roundtrip(rng, size):
    from .morphisms import PolarityMorphism

    pol = random_galois_polarity(rng, rng.randint(1, size))
    assert roundtrip_holds(PolarityMorphism.identity(pol))
    assert roundtrip_holds(collapse_morphism(pol))
    return pol


def _law_completion(rng, size):
    pol = random_galois_polarity(rng, rng.randint(1, min(size, 3)))
    d = gamma_on_objects(pol)
    counit_iso(d)
    eta = unit(pol)
    ctx = ExtensionContext(pol, Extension(eta.hx), Extension(eta.hy))
    rbar = extend_relation(ctx)
    generated = {
        (a, b) for a, b in eta.target.rel
    }
    assert rbar <= generated, "saturation must stay inside the generated relation"
    if rbar < generated:
        return pol  # finite gap: reported as a finding by the caller
    return None


_LAWS = {
    "coherence": _law_coherence,
    "slice": _law_slice,
    "extension": _law_extension,
    "restriction": _law_restriction,
    "roundtrip": _law_roundtrip,
    "completion": _law_completion,
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
        try:
            outcome = _LAWS[law](rng, args.size)
        except (AssertionError, PolabError) as err:
            print("law %r violated on iteration %d: %s" % (law, i, err))
            return 1
        if law == "completion" and outcome is not None:
            findings += 1
            print(
                "# finding %d: generated relation strictly exceeds the saturation"
                % findings
            )
            if findings == 1:
                print(serialize(document_of(outcome)), end="")
    print("fuzz ok: %d iterations, laws: %s, findings: %d" % (args.iters, ",".join(names), findings))
    return 0


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
    c.add_argument("--only")
    c.set_defaults(run=cmd_fixtures)

    c = sub.add_parser("fuzz", help="seeded random law checking")
    c.add_argument("--seed", type=int, required=True)
    c.add_argument("--size", type=int, required=True)
    c.add_argument("--iters", type=int, required=True)
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
