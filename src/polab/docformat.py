"""The text document format and the DOT export.

A document is a sequence of blocks `kind name { statement; ... }`: one
header per line, statements split by `;` or newlines, `#` comments, and
a block names only blocks above it.  `_GRAMMAR` is the whole grammar:
per kind, its reference statements (`keyword name`, each required), its
list statements (`keyword token ...`, pairs split at `<`, `->` or `~`,
bare ids for `elems`) and its flags (`slice`).  `parse` reads each
statement into these as it comes (`_read`), and at a block's closing
brace a builder per kind calls the constructor.  Preorder blocks
declare generating pairs on the tagged carrier (`X.a`, `Y.b`) of a
polarity; the reflexive-transitive closure is taken.  An error names
its statement's line, or the header's for an error about the whole
block; a constructor's error keeps its type and message.  The README's
"Document format" section is the reference.
"""

from __future__ import annotations

import re
from collections import namedtuple
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

_HEADER = re.compile(r"\s*(\w+)\s+(\S+)\s*\{(.*)$")
_NAME = re.compile(r"[A-Za-z0-9_*.+-]+$")
# An id reads back when it is a nonempty token free of `#`, `;`, braces
# and the separators `<`, `~` and `->`.
_ID = r"(?:[^\s#;{}<~-]|-(?!>))+"
_IDS = re.compile(r"%s(?: %s)*\Z" % (_ID, _ID))


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
    order: list = field(default_factory=list, compare=False)

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


def _reraise(err, line):
    raise type(err)("line %d: %s" % (line, err.args[0]), *err.args[1:]) from None


def _at(line, build, *args):
    """`build(*args)`, an error it raises put on `line`."""
    try:
        return build(*args)
    except PolabError as err:
        _reraise(err, line)


def _tagged_token(tok, line):
    if tok.startswith("X."):
        return tag_x(tok[2:])
    if tok.startswith("Y."):
        return tag_y(tok[2:])
    raise ParseError("carrier element must be X.name or Y.name", line)


def _read(got, kind, spec, ln, stmt, parts):
    """One statement `stmt`, split into tokens `parts`, of a block into
    `got` by keyword: a reference or a flag as `(line, word)`; a list
    statement added to the block's as `(line, ids)` for `elems` and
    `(line, pairs)` for pairs (`_PAIR`)."""
    kw = parts[0]
    if kw in spec.lists:
        sample = spec.lists[kw]
        if sample is None:
            got[kw].append((ln, parts[1:]))
        else:
            pairs = _PAIR[sample].findall(stmt)
            if len(pairs) < len(parts) - 1:
                raise ParseError("%s expects %s tokens" % (kw, sample), ln)
            got[kw].append((ln, pairs))
    elif kw in spec.refs and len(parts) == 2 or kw in spec.flags and len(parts) == 1:
        got[kw] = (ln, parts[-1])
    else:
        raise ParseError("unknown %s statement %r" % (kind, kw), ln)


def _lined(stmts):
    """The pairs of the statements `(line, pairs)` as `(line, a, b)`."""
    return [(ln, a, b) for ln, pairs in stmts for a, b in pairs]


def _build_poset(doc, got):
    elems = [e for _, ids in got["elems"] for e in ids]
    try:
        return Poset.from_pairs(elems, [p for _, ps in got["le"] for p in ps])
    except PolabError as err:
        # The first `elems` line that repeats an id, else the first `le`
        # line by which the pairs so far fail.
        seen = set()
        for ln, ids in got["elems"]:
            if len(seen.union(ids)) < len(seen) + len(ids):
                _reraise(err, ln)
            seen.update(ids)
        pairs = _lined(got["le"])
        bad = pairs[0][0] if pairs else got["elems"][0][0]
        for ln, _, _ in pairs:
            try:
                Poset.from_pairs(elems, [(a, b) for l2, a, b in pairs if l2 <= ln])
            except PolabError:
                bad = ln
                break
        _reraise(err, bad)


def _build_map(doc, got):
    source, target = doc.posets[got["from"][1]], doc.posets[got["to"][1]]
    try:
        return MonotoneMap(source, target, {a: b for _, ps in got["send"] for a, b in ps})
    except UnknownId as err:
        # An image off the target is found first: that of the first source
        # element, in source order, sent there by its last `send`, the one
        # in force.  Else a key off the source: its first `send`.
        sends = _lined(got["send"])
        last = {a: (ln, b) for ln, a, b in sends}
        in_force = (last[p] for p in source.elements)
        off = (ln for ln, b in in_force if b not in target.index)
        extra = (ln for ln, a, _ in sends if a not in source.index)
        _reraise(err, next(off, None) or next(extra))
    except PolabError as err:
        _reraise(err, got["send"][0][0] if got["send"] else got["from"][0])


def _build_polarity(doc, got):
    (base_line, base), (ex_line, ex), (ey_line, ey) = got["base"], got["ex"], got["ey"]
    base = doc.posets[base]
    x_ext = _at(ex_line, Extension, doc.maps[ex])
    y_ext = _at(ey_line, Extension, doc.maps[ey])
    pairs = {p for _, ps in got["rel"] for p in ps}
    if "slice" in got:
        pairs |= r_l(x_ext, y_ext)
    try:
        return ExtensionPolarity(base, x_ext, y_ext, pairs)
    except UnknownId:
        # The constructor checks the pairs in no fixed order: name the
        # first `rel` line with an id off its side, in its wording.
        for ln, a, b in _lined(got["rel"]):
            _at(ln, ExtensionPolarity, base, x_ext, y_ext, ((a, b),))
        raise
    except PolabError as err:
        _reraise(err, base_line)


def _build_preorder(doc, got):
    carrier = doc.polarities[got["polarity"][1]].carrier()
    le = [
        (ln, _tagged_token(a, ln), _tagged_token(b, ln)) for ln, a, b in _lined(got["le"])
    ]
    diag = [(e, e) for e in carrier]
    try:
        pre = UnionPreorder.from_pairs(carrier, diag + [(a, b) for _, a, b in le])
    except UnknownId as err:
        off = (ln for ln, a, b in le if a not in carrier or b not in carrier)
        _reraise(err, next(off))
    return pre.closed()


def _build_morphism(doc, got):
    return MorphismDecl(*(got[kw][1] for kw in ("from", "to", "hx", "hp", "hy")))


def _build_completion(doc, got):
    ln, ref = got["map"]
    return _at(ln, Extension, doc.maps[ref])


def _untag(e):
    return "%s.%s" % (e[0], e[1])


def _name_of(store, value, what, name):
    """The name under which `store` holds `value`; UnknownId naming
    `what` of block `name` if it holds none."""
    for k, v in store.items():
        if v == value:
            return k
    raise UnknownId("%s %r is not in the document" % (what, name))


def _joined_ids(name, ids):
    """The ids of poset `name`, space-joined; ParseError unless each is
    a token that reads back, decided by one match for the whole block."""
    try:
        text = " ".join(ids)
    except TypeError:
        text = ""
    if ids and not (_IDS.match(text) and text.count(" ") == len(ids) - 1):
        bad = next(
            e for e in ids if not (isinstance(e, str) and _IDS.match(e)) or " " in e
        )
        raise ParseError("poset %r: id %r does not read back" % (name, bad))
    return text


# Each emitter gives the statements of one block.


def _emit_poset(doc, name):
    p = doc.posets[name]
    stmts = ["elems " + _joined_ids(name, p.elements)]
    covers = p.covers()
    if covers:
        stmts.append("le " + " ".join("%s<%s" % ab for ab in covers))
    return stmts


def _emit_map(doc, name):
    m = doc.maps[name]
    src = _name_of(doc.posets, m.source, "the source poset of map", name)
    tgt = _name_of(doc.posets, m.target, "the target poset of map", name)
    stmts = ["from " + src, "to " + tgt]
    elements = m.source.elements
    if elements:
        stmts.append("send " + " ".join("%s->%s" % (p, m(p)) for p in elements))
    return stmts


def _emit_polarity(doc, name):
    pol = doc.polarities[name]
    base = _name_of(doc.posets, pol.base, "the base poset of polarity", name)
    ex = _name_of(doc.maps, pol.ex.map, "the ex map of polarity", name)
    ey = _name_of(doc.maps, pol.ey.map, "the ey map of polarity", name)
    stmts = ["base " + base, "ex " + ex, "ey " + ey]
    if pol.rel:
        stmts.append("rel " + " ".join("%s~%s" % ab for ab in sorted(pol.rel)))
    return stmts


def _emit_preorder(doc, name):
    pre = doc.preorders[name]
    carriers = {k: tuple(v.carrier()) for k, v in doc.polarities.items()}
    pol = _name_of(carriers, pre.carrier, "the polarity of preorder", name)
    pairs = [
        "%s<%s" % (_untag(a), _untag(b))
        for a in pre.carrier
        for b in pre.carrier
        if a != b and pre.rel(a, b)
    ]
    stmts = ["polarity " + pol]
    if pairs:
        stmts.append("le " + " ".join(pairs))
    return stmts


def _emit_morphism(doc, name):
    d = doc.morphisms[name]
    refs = zip(("from", "to", "hx", "hp", "hy"), (d.source, d.target, d.hx, d.hp, d.hy))
    return ["%s %s" % ref for ref in refs]


def _emit_completion(doc, name):
    ref = _name_of(doc.maps, doc.completions[name].map, "the map of completion", name)
    return ["map " + ref]


_Kind = namedtuple("_Kind", "store refs lists flags build emit")

# Per block kind: the `Document` field holding its blocks; its reference
# statements, keyword -> the kind of block named; its list statements,
# keyword -> a sample token whose middle is the separator (None for bare
# ids); its bare flags; its builder and its emitter.
_GRAMMAR = {
    "poset": _Kind(
        "posets", {}, {"elems": None, "le": "a<b"}, (), _build_poset, _emit_poset
    ),
    "map": _Kind(
        "maps", {"from": "poset", "to": "poset"}, {"send": "a->b"}, (),
        _build_map, _emit_map,
    ),
    "polarity": _Kind(
        "polarities", {"base": "poset", "ex": "map", "ey": "map"}, {"rel": "x~y"},
        ("slice",), _build_polarity, _emit_polarity,
    ),
    "preorder": _Kind(
        "preorders", {"polarity": "polarity"}, {"le": "a<b"}, (),
        _build_preorder, _emit_preorder,
    ),
    "morphism": _Kind(
        "morphisms",
        {"from": "polarity", "to": "polarity", "hx": "map", "hp": "map", "hy": "map"},
        {}, (), _build_morphism, _emit_morphism,
    ),
    "completion": _Kind(
        "completions", {"map": "map"}, {}, (), _build_completion, _emit_completion
    ),
}


# Per sample pair token: a token split at its first separator, by `findall`.
_PAIR = {
    sample: re.compile(r"(\S*?)%s(\S*)" % re.escape(sample[1:-1]))
    for kind in _GRAMMAR.values()
    for sample in kind.lists.values()
    if sample is not None
}


def parse(text):
    """The document of `text`, in one pass over its lines: a block's kind
    and name are checked at its header, each statement is read as it
    comes (`_read`), and at its closing brace the block's references are
    checked and it is built."""
    doc, names, got = Document(), set(), None
    for ln, line in enumerate(text.split("\n"), 1):
        if "#" in line:
            line = line[: line.index("#")]
        if got is None:
            if not line or line.isspace():
                continue
            m = _HEADER.match(line)
            if not m:
                raise ParseError("expected 'kind name {'", ln)
            kind, name, line = m.groups()
            if not _NAME.match(name):
                raise ParseError("bad name %r" % name, ln)
            spec = _GRAMMAR.get(kind)
            if spec is None:
                raise ParseError("unknown block kind %r" % kind, ln)
            if name in names:
                raise ParseError("duplicate name %r" % name, ln)
            header, got = ln, {kw: [] for kw in spec.lists}
        body, brace, after = line.partition("}")
        for stmt in body.split(";"):
            parts = stmt.split()
            if parts:
                _read(got, kind, spec, ln, stmt, parts)
        if not brace:
            continue
        if after and not after.isspace():
            raise ParseError("text after closing brace", ln)
        if not spec.refs.keys() <= got.keys():
            missing = ", ".join(kw for kw in spec.refs if kw not in got)
            raise ParseError("%s %r needs %s" % (kind, name, missing), header)
        for kw, target in spec.refs.items():
            if got[kw][1] not in getattr(doc, _GRAMMAR[target].store):
                raise ParseError("unknown %s %r" % (target, got[kw][1]), got[kw][0])
        getattr(doc, spec.store)[name] = spec.build(doc, got)
        doc.order.append((kind, name))
        names.add(name)
        got = None
    if got is not None:
        raise ParseError("unterminated block %r" % name, ln)
    return doc


def serialize(doc):
    """Canonical text for a document; parse(serialize(d)) == d.  Raises
    ParseError for a name or id that would not read back, and UnknownId
    for a block that names one missing from the document or, for a
    morphism block, written after it."""
    blocks = list(doc.order)
    for kind, spec in _GRAMMAR.items():
        blocks += [(kind, name) for name in getattr(doc, spec.store)]
    blocks = list(dict.fromkeys(blocks))
    out = []
    for k, (kind, name) in enumerate(blocks):
        if not (isinstance(name, str) and _NAME.match(name)):
            raise ParseError("bad name %r" % (name,))
        if kind == "morphism":
            # The other emitters look their references up in the document;
            # a morphism block writes the names it was declared with.
            d = doc.morphisms[name]
            refs = [("polarity", d.source), ("polarity", d.target)]
            refs += [("map", m) for m in (d.hx, d.hp, d.hy)]
            missing = [ref for ref in refs if ref not in blocks[:k]]
            if missing:
                raise UnknownId(
                    "morphism %r names %s %r, which does not come before it"
                    % ((name,) + missing[0])
                )
        stmts = ";\n  ".join(_GRAMMAR[kind].emit(doc, name))
        out.append("%s %s {\n  %s;\n}" % (kind, name, stmts))
    return "\n".join(out) + "\n"


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
