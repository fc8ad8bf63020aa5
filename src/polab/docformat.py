"""The text document format and the DOT export.

Documents are block-structured: `kind name { statement; ... }` with `#`
comments, whitespace-insensitive.  Kinds: poset, map, polarity,
preorder, morphism, completion.  Later blocks may reference earlier
ones by name.  Preorder blocks declare generating pairs on the tagged
carrier of a polarity; the reflexive-transitive closure is taken.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError, PolabError, UnknownId
from .order import (
    Extension,
    MonotoneMap,
    Poset,
    UnionPreorder,
    tag_x,
    tag_y,
)
from .polarity import ExtensionPolarity, r_l

_NAME = re.compile(r"[A-Za-z0-9_*.+-]+$")


@dataclass
class MorphismDecl:
    source: str
    target: str
    hx: str
    hp: str
    hy: str


@dataclass
class Document:
    posets: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    polarities: dict = field(default_factory=dict)
    preorders: dict = field(default_factory=dict)
    morphisms: dict = field(default_factory=dict)
    completions: dict = field(default_factory=dict)
    order: list = field(default_factory=list)

    def build_morphism(self, name):
        """Materialize a declared triple; raises MorphismInvalid on a
        clause failure."""
        from .morphisms import PolarityMorphism

        decl = self.morphisms[name]
        return PolarityMorphism(
            self.polarities[decl.source],
            self.polarities[decl.target],
            self.maps[decl.hx],
            self.maps[decl.hp],
            self.maps[decl.hy],
        )

    def build_completion(self, name):
        from .delta1 import Delta1Completion

        return Delta1Completion(self.completions[name])

    def __eq__(self, other):
        return (
            isinstance(other, Document)
            and self.posets == other.posets
            and self.maps == other.maps
            and self.polarities == other.polarities
            and self.preorders == other.preorders
            and self.morphisms == other.morphisms
            and self.completions == other.completions
        )


def _strip_comments(text):
    lines = []
    for raw in text.split("\n"):
        cut = raw.find("#")
        lines.append(raw if cut < 0 else raw[:cut])
    return lines


def _blocks(text):
    """Yield (kind, name, [(line, statement)]) per block."""
    lines = _strip_comments(text)
    i, n = 0, len(lines)
    while i < n:
        if not lines[i].strip():
            i += 1
            continue
        header = lines[i].strip()
        m = re.match(r"(\w+)\s+(\S+)\s*\{(.*)$", header)
        if not m:
            raise ParseError("expected 'kind name {'", i + 1)
        kind, name, rest = m.group(1), m.group(2), m.group(3)
        if not _NAME.match(name):
            raise ParseError("bad name %r" % name, i + 1)
        body = []
        line_no = i + 1
        closed = False
        chunk = rest
        while True:
            while "}" in chunk:
                before, _, after = chunk.partition("}")
                body.append((line_no, before))
                if after.strip():
                    raise ParseError("text after closing brace", line_no)
                closed = True
                chunk = ""
            if closed:
                break
            body.append((line_no, chunk))
            i += 1
            if i >= n:
                raise ParseError("unterminated block %r" % name, line_no)
            line_no = i + 1
            chunk = lines[i]
        i += 1
        stmts = []
        for ln, part in body:
            for stmt in part.split(";"):
                if stmt.strip():
                    stmts.append((ln, stmt.strip()))
        yield kind, name, stmts


def _reraise(err, line):
    raise type(err)("line %d: %s" % (line, err.args[0]), *err.args[1:]) from None


def _tagged_token(tok, line):
    if tok.startswith("X."):
        return tag_x(tok[2:])
    if tok.startswith("Y."):
        return tag_y(tok[2:])
    raise ParseError("carrier element must be X.name or Y.name", line)


_HANDLED = ("poset", "map", "polarity", "preorder", "morphism", "completion")


def parse(text):
    doc = Document()
    for kind, name, stmts in _blocks(text):
        if kind not in _HANDLED:
            raise ParseError("unknown block kind %r" % kind, stmts[0][0] if stmts else 1)
        for store in (
            doc.posets,
            doc.maps,
            doc.polarities,
            doc.preorders,
            doc.morphisms,
            doc.completions,
        ):
            if name in store:
                raise ParseError("duplicate name %r" % name, stmts[0][0] if stmts else 1)
        builder = globals()["_parse_" + kind]
        builder(doc, name, stmts)
        doc.order.append((kind, name))
    return doc


def _parse_poset(doc, name, stmts):
    elems = []
    pairs = []
    for ln, stmt in stmts:
        parts = stmt.split()
        if parts[0] == "elems":
            elems.extend(parts[1:])
        elif parts[0] == "le":
            for tok in parts[1:]:
                if "<" not in tok:
                    raise ParseError("le expects a<b tokens", ln)
                a, _, b = tok.partition("<")
                pairs.append((ln, a, b))
        else:
            raise ParseError("unknown poset statement %r" % parts[0], ln)
    try:
        poset = Poset.from_pairs(elems, [(a, b) for _, a, b in pairs])
    except PolabError as err:
        bad = pairs[0][0] if pairs else (stmts[0][0] if stmts else 1)
        for ln, a, b in pairs:
            try:
                Poset.from_pairs(elems, [(x, y) for l2, x, y in pairs if l2 <= ln])
            except PolabError:
                bad = ln
                break
        _reraise(err, bad)
    doc.posets[name] = poset


def _parse_map(doc, name, stmts):
    source = target = None
    sends = []
    for ln, stmt in stmts:
        parts = stmt.split()
        if parts[0] == "from" and len(parts) == 2:
            source = (ln, parts[1])
        elif parts[0] == "to" and len(parts) == 2:
            target = (ln, parts[1])
        elif parts[0] == "send":
            for tok in parts[1:]:
                if "->" not in tok:
                    raise ParseError("send expects a->b tokens", ln)
                a, _, b = tok.partition("->")
                sends.append((ln, a, b))
        else:
            raise ParseError("unknown map statement %r" % parts[0], ln)
    if source is None or target is None:
        raise ParseError("map %r needs from and to" % name, stmts[0][0] if stmts else 1)
    for ln, pname in (source, target):
        if pname not in doc.posets:
            raise ParseError("unknown poset %r" % pname, ln)
    try:
        doc.maps[name] = MonotoneMap(
            doc.posets[source[1]],
            doc.posets[target[1]],
            {a: b for _, a, b in sends},
        )
    except PolabError as err:
        _reraise(err, sends[0][0] if sends else source[0])


def _parse_polarity(doc, name, stmts):
    base = ex = ey = None
    rel = []
    use_slice = False
    for ln, stmt in stmts:
        parts = stmt.split()
        if parts[0] == "slice" and len(parts) == 1:
            use_slice = True
        elif parts[0] in ("base", "ex", "ey") and len(parts) == 2:
            if parts[0] == "base":
                base = (ln, parts[1])
            elif parts[0] == "ex":
                ex = (ln, parts[1])
            else:
                ey = (ln, parts[1])
        elif parts[0] == "rel":
            for tok in parts[1:]:
                if "~" not in tok:
                    raise ParseError("rel expects x~y tokens", ln)
                a, _, b = tok.partition("~")
                rel.append((ln, a, b))
        else:
            raise ParseError("unknown polarity statement %r" % parts[0], ln)
    if base is None or ex is None or ey is None:
        raise ParseError(
            "polarity %r needs base, ex and ey" % name, stmts[0][0] if stmts else 1
        )
    if base[1] not in doc.posets:
        raise ParseError("unknown poset %r" % base[1], base[0])
    for ln, mname in (ex, ey):
        if mname not in doc.maps:
            raise ParseError("unknown map %r" % mname, ln)
    x, y = doc.maps[ex[1]].target, doc.maps[ey[1]].target
    for ln, a, b in rel:
        if a not in x.index:
            raise UnknownId("line %d: relation uses unknown left element %r" % (ln, a))
        if b not in y.index:
            raise UnknownId("line %d: relation uses unknown right element %r" % (ln, b))
    try:
        x_ext = Extension(doc.maps[ex[1]])
        y_ext = Extension(doc.maps[ey[1]])
        pairs = {(a, b) for _, a, b in rel}
        if use_slice:
            pairs |= r_l(x_ext, y_ext)
        pol = ExtensionPolarity(doc.posets[base[1]], x_ext, y_ext, pairs)
    except PolabError as err:
        _reraise(err, base[0])
    doc.polarities[name] = pol


def _parse_preorder(doc, name, stmts):
    pol = None
    pairs = []
    for ln, stmt in stmts:
        parts = stmt.split()
        if parts[0] == "polarity" and len(parts) == 2:
            if parts[1] not in doc.polarities:
                raise ParseError("unknown polarity %r" % parts[1], ln)
            pol = doc.polarities[parts[1]]
        elif parts[0] == "le":
            for tok in parts[1:]:
                if "<" not in tok:
                    raise ParseError("le expects a<b tokens", ln)
                a, _, b = tok.partition("<")
                pairs.append((_tagged_token(a, ln), _tagged_token(b, ln), ln))
        else:
            raise ParseError("unknown preorder statement %r" % parts[0], ln)
    if pol is None:
        raise ParseError(
            "preorder %r needs a polarity" % name, stmts[0][0] if stmts else 1
        )
    carrier = pol.carrier()
    diag = [(e, e) for e in carrier]
    try:
        pre = UnionPreorder.from_pairs(
            carrier, diag + [(a, b) for a, b, _ in pairs]
        ).closed()
    except UnknownId as err:
        _reraise(err, pairs[0][2] if pairs else stmts[0][0])
    doc.preorders[name] = pre


def _parse_morphism(doc, name, stmts):
    got = {}
    for ln, stmt in stmts:
        parts = stmt.split()
        if parts[0] in ("from", "to", "hx", "hp", "hy") and len(parts) == 2:
            got[parts[0]] = (ln, parts[1])
        else:
            raise ParseError("unknown morphism statement %r" % parts[0], ln)
    missing = [k for k in ("from", "to", "hx", "hp", "hy") if k not in got]
    if missing:
        raise ParseError(
            "morphism %r needs %s" % (name, ", ".join(missing)),
            stmts[0][0] if stmts else 1,
        )
    for key in ("from", "to"):
        ln, ref = got[key]
        if ref not in doc.polarities:
            raise ParseError("unknown polarity %r" % ref, ln)
    for key in ("hx", "hp", "hy"):
        ln, ref = got[key]
        if ref not in doc.maps:
            raise ParseError("unknown map %r" % ref, ln)
    doc.morphisms[name] = MorphismDecl(
        source=got["from"][1],
        target=got["to"][1],
        hx=got["hx"][1],
        hp=got["hp"][1],
        hy=got["hy"][1],
    )


def _parse_completion(doc, name, stmts):
    ref = None
    for ln, stmt in stmts:
        parts = stmt.split()
        if parts[0] == "map" and len(parts) == 2:
            if parts[1] not in doc.maps:
                raise ParseError("unknown map %r" % parts[1], ln)
            ref = parts[1]
        else:
            raise ParseError("unknown completion statement %r" % parts[0], ln)
    if ref is None:
        raise ParseError(
            "completion %r needs a map" % name, stmts[0][0] if stmts else 1
        )
    try:
        doc.completions[name] = Extension(doc.maps[ref])
    except PolabError as err:
        _reraise(err, stmts[0][0])


def _untag(e):
    return "%s.%s" % (e[0], e[1])


def serialize(doc):
    """Canonical text for a document; parse(serialize(d)) == d."""
    out = []
    seen = set()
    order = list(doc.order)
    for kind, store in (
        ("poset", doc.posets),
        ("map", doc.maps),
        ("polarity", doc.polarities),
        ("preorder", doc.preorders),
        ("morphism", doc.morphisms),
        ("completion", doc.completions),
    ):
        for name in store:
            if (kind, name) not in order:
                order.append((kind, name))
    for kind, name in order:
        if (kind, name) in seen:
            continue
        seen.add((kind, name))
        out.append(globals()["_emit_" + kind](doc, name))
    return "\n".join(out) + "\n"


def _emit_poset(doc, name):
    p = doc.posets[name]
    lines = ["poset %s {" % name]
    lines.append("  elems %s;" % " ".join(str(e) for e in p.elements))
    covers = p.covers()
    if covers:
        lines.append("  le %s;" % " ".join("%s<%s" % (a, b) for a, b in covers))
    lines.append("}")
    return "\n".join(lines)


def _emit_map(doc, name):
    m = doc.maps[name]
    src = next(k for k, v in doc.posets.items() if v == m.source)
    tgt = next(k for k, v in doc.posets.items() if v == m.target)
    lines = ["map %s {" % name, "  from %s;" % src, "  to %s;" % tgt]
    sends = " ".join("%s->%s" % (p, m(p)) for p in m.source.elements)
    if sends:
        lines.append("  send %s;" % sends)
    lines.append("}")
    return "\n".join(lines)


def _emit_polarity(doc, name):
    pol = doc.polarities[name]
    base = next(k for k, v in doc.posets.items() if v == pol.base)
    ex = next(k for k, v in doc.maps.items() if v == pol.ex.map)
    ey = next(k for k, v in doc.maps.items() if v == pol.ey.map)
    lines = [
        "polarity %s {" % name,
        "  base %s;" % base,
        "  ex %s;" % ex,
        "  ey %s;" % ey,
    ]
    if pol.rel:
        lines.append(
            "  rel %s;" % " ".join("%s~%s" % ab for ab in sorted(pol.rel))
        )
    lines.append("}")
    return "\n".join(lines)


def _emit_preorder(doc, name):
    pre = doc.preorders[name]
    pol = next(
        k for k, v in doc.polarities.items() if tuple(v.carrier()) == pre.carrier
    )
    lines = ["preorder %s {" % name, "  polarity %s;" % pol]
    pairs = [
        "%s<%s" % (_untag(a), _untag(b))
        for a in pre.carrier
        for b in pre.carrier
        if a != b and pre.rel(a, b)
    ]
    if pairs:
        lines.append("  le %s;" % " ".join(pairs))
    lines.append("}")
    return "\n".join(lines)


def _emit_morphism(doc, name):
    d = doc.morphisms[name]
    return "\n".join(
        [
            "morphism %s {" % name,
            "  from %s;" % d.source,
            "  to %s;" % d.target,
            "  hx %s;" % d.hx,
            "  hp %s;" % d.hp,
            "  hy %s;" % d.hy,
            "}",
        ]
    )


def _emit_completion(doc, name):
    ref = next(k for k, v in doc.maps.items() if v == doc.completions[name].map)
    return "completion %s {\n  map %s;\n}" % (name, ref)


def _dot_id(e):
    return '"%s"' % (_untag(e) if isinstance(e, tuple) else str(e))


def to_dot(poset, name="G", filled=()):
    """A Hasse diagram as DOT text: the transitive reduction, bottom-up
    ranks, deterministic node order.  Nodes in `filled` (images of base
    elements, typically) are drawn filled, others unfilled."""
    filled = set(filled)
    lines = ["digraph %s {" % name, "  rankdir=BT;", '  node [shape=circle];']
    for e in poset.elements:
        style = "filled" if e in filled else "solid"
        lines.append("  %s [style=%s];" % (_dot_id(e), style))
    for a, b in poset.covers():
        lines.append("  %s -> %s;" % (_dot_id(a), _dot_id(b)))
    lines.append("}")
    return "\n".join(lines) + "\n"
