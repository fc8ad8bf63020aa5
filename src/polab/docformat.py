"""The text document format and the DOT export.

README's "Document format" section is the reference for the format: its
grammar, its separators, the line an error names and what `serialize`
refuses.  `_GRAMMAR` holds the grammar as data; `parse` reads a document
in one pass, a builder per kind handing the tokens to the constructors,
which check them, and `serialize` writes it back, an emitter per kind.
"""

from __future__ import annotations

import re
from itertools import chain
from collections import namedtuple

from .errors import CarrierMismatch, ParseError, PolabError, UnknownId
from .order import (
    Extension,
    MonotoneMap,
    Poset,
    UnionPreorder,
    tag_x,
    tag_y,
)
from .polarity import ExtensionPolarity, _pairs_of

_NAME = re.compile(r"[A-Za-z0-9_*.+-]+$")
# An id reads back when it is a nonempty token free of `#`, `;`, braces
# and the separators `<`, `~` and `->`.
_ID = r"(?:[^\s#;{}<~-]|-(?!>))+"
_IDS = re.compile(r"%s(?: %s)*\Z" % (_ID, _ID))


# A declared morphism: the names of its polarities and of its three maps.
MorphismDecl = namedtuple("MorphismDecl", "source target hx hp hy")


class Document:
    """Per block kind, a dict from name to value, and `order`, the (kind,
    name) of each block as read; equality ignores `order`."""

    __slots__ = ("posets", "maps", "polarities", "preorders", "morphisms", "completions", "order")

    def __init__(self, posets=None, maps=None, polarities=None, preorders=None,
                 morphisms=None, completions=None, order=None):
        stores = (posets, maps, polarities, preorders, morphisms, completions)
        for name, store in zip(self.__slots__, stores):
            setattr(self, name, {} if store is None else store)
        self.order = [] if order is None else order

    def __eq__(self, other):
        if not isinstance(other, Document):
            return NotImplemented
        # `order`, the last slot, is not compared.
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__[:-1])

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "Document(%s)" % fields

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


class _At(Exception):
    """An error or a reader's message, and its statement's index in the block."""


def _each(stmts, kw):
    """`(k, text after the keyword)` for each statement `stmts[k]` with keyword `kw`."""
    split = enumerate(stmt.split(None, 1) for stmt in stmts)
    return [(k, "".join(p[1:])) for k, p in split if p[:1] == [kw]]


def _pairs(text, sep):
    """The tokens of `text`, each holding `sep` (`_read`), split at their first
    `sep`: the halves pair up in order when twice the separators in number,
    else some token has an empty half or a second `sep`, and each is split."""
    halves = text.replace(sep, " ").split()
    if len(halves) == 2 * text.count(sep):
        it = iter(halves)
        return zip(it, it)
    return [tuple(t.split(sep, 1)) for t in text.split()]


def _build_poset(doc, got, stmts):
    ids = got.get("elems", "").split()
    try:
        return Poset.from_pairs(ids, _pairs(got.get("le", ""), "<"))
    except PolabError as err:
        # The first `elems` that repeats an id, else the first `le` by which it fails.
        seen, le = [], ""
        for k, text in _each(stmts, "elems"):
            seen += text.split()
            if len(set(seen)) < len(seen):
                raise _At(err, k)
        for k, text in _each(stmts, "le"):
            le += " " + text
            try:
                Poset.from_pairs(ids, _pairs(le, "<"))
            except PolabError:
                raise _At(err, k)


def _build_map(doc, got, stmts):
    source, target = doc.posets[got["from"]], doc.posets[got["to"]]
    try:
        return MonotoneMap(source, target, _pairs(got.get("send", ""), "->"))
    except UnknownId as err:
        # The `send` in force of the first element imaged off the target, else a key's first.
        sends = [(k, a, b) for k, text in _each(stmts, "send") for a, b in _pairs(text, "->")]
        last = {a: (k, b) for k, a, b in sends}
        off = (k for k, b in map(last.__getitem__, source.elements) if b not in target.index)
        raise _At(err, next(chain(off, (k for k, a, _ in sends if a not in source.index))))
    except PolabError as err:
        raise _At(err, (_each(stmts, "send") or _each(stmts, "from")[-1:])[0][0])


def _build_polarity(doc, got, stmts):
    base, kw = doc.posets[got["base"]], "ex"
    try:
        x_ext = Extension(doc.maps[got["ex"]])
        kw = "ey"
        y_ext = Extension(doc.maps[got["ey"]])
    except PolabError as err:
        raise _At(err, _each(stmts, kw)[-1][0])
    if "slice" in got and x_ext.base != y_ext.base:
        # The slice relation's own refusal, which comes before the constructor's.
        raise CarrierMismatch("extensions must share a base poset")
    try:
        pol = ExtensionPolarity(base, x_ext, y_ext, _pairs(got.get("rel", ""), "~"))
    except UnknownId as err:
        # The constructor names the first pair off the sides, a `rel` pair.
        rels = _each(stmts, "rel")
        raise _At(err, next(k for k, text in rels if err.witness in _pairs(text, "~")))
    except PolabError as err:
        raise _At(err, _each(stmts, "base")[-1][0])
    if "slice" in got:
        pol = ExtensionPolarity._of_mask(pol._frame, pol._mask | pol._frame.slice_mask())
    return pol


def _build_preorder(doc, got, stmts):
    carrier = doc.polarities[got["polarity"]].carrier()
    tag = {"X.": tag_x, "Y.": tag_y}
    le = []
    for k, text in _each(stmts, "le"):
        for pair in _pairs(text, "<"):
            if any(t[:2] not in tag for t in pair):
                raise _At("carrier element must be X.name or Y.name", k)
            le.append((k, *(tag[t[:2]](t[2:]) for t in pair)))
    try:
        pre = UnionPreorder.from_pairs(carrier, [(e, e) for e in carrier] + [p[1:] for p in le])
    except UnknownId as err:
        raise _At(err, next(k for k, a, b in le if a not in carrier or b not in carrier))
    return pre.closed()


def _build_morphism(doc, got, stmts):
    return MorphismDecl(*(got[kw] for kw in ("from", "to", "hx", "hp", "hy")))


def _build_completion(doc, got, stmts):
    try:
        return Extension(doc.maps[got["map"]])
    except PolabError as err:
        raise _At(err, _each(stmts, "map")[-1][0])


def _untag(e):
    return "%s.%s" % (e[0], e[1])


def _name_of(store, value, what, name):
    """The name under which `store` holds `value`, the value itself found
    without a call of `==`; UnknownId naming `what` of block `name` if it
    holds none."""
    for k, v in store.items():
        if v is value or v == value:
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
        stmts.append("le " + " ".join(map("%s<%s".__mod__, covers)))
    return stmts


def _emit_map(doc, name):
    m = doc.maps[name]
    src = _name_of(doc.posets, m.source, "the source poset of map", name)
    tgt = _name_of(doc.posets, m.target, "the target poset of map", name)
    stmts = ["from " + src, "to " + tgt]
    if m.idx:
        sends = zip(m.source.elements, map(m.target.elements.__getitem__, m.idx))
        stmts.append("send " + " ".join(map("%s->%s".__mod__, sends)))
    return stmts


def _emit_polarity(doc, name):
    pol = doc.polarities[name]
    base = _name_of(doc.posets, pol.base, "the base poset of polarity", name)
    ex = _name_of(doc.maps, pol.ex.map, "the ex map of polarity", name)
    ey = _name_of(doc.maps, pol.ey.map, "the ey map of polarity", name)
    stmts = ["base " + base, "ex " + ex, "ey " + ey]
    # Sorted by label, not by index: `x10` comes before `x2`.
    pairs = _pairs_of(pol.x.elements, pol.y.elements, pol._mask)
    if pairs:
        pairs.sort()
        stmts.append("rel " + " ".join(map("%s~%s".__mod__, pairs)))
    return stmts


def _emit_preorder(doc, name):
    pre = doc.preorders[name]
    carriers = {k: tuple(v.carrier()) for k, v in doc.polarities.items()}
    pol = _name_of(carriers, pre.carrier, "the polarity of preorder", name)
    ids, pairs = list(map(_untag, pre.carrier)), []
    for i, row in enumerate(pre.rows):
        # The off-diagonal bits of each row, in row order.
        row &= ~(1 << i)
        while row:
            low = row & -row
            pairs.append("%s<%s" % (ids[i], ids[low.bit_length() - 1]))
            row ^= low
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


# A block: its kind and name on the header line, the body up to the first
# `}`, the brace if there is one, and the rest of its line.
_BLOCK = re.compile(r"\s*(\w+)[^\S\n]+(\S+)[^\S\n]*\{([^}]*)(\}?)([^\n]*)")


def _line(text, pos):
    return text.count("\n", 0, pos) + 1


def _read(kind, name, spec, stmts):
    """A block's statements by keyword: a reference's or a flag's word (the
    last counts), a list's texts joined.  Raises `_At` at the first fault,
    which lies in a statement's text alone: `stmts.index` finds it."""
    lists, got = spec.lists, {}
    for stmt in filter(None, stmts):
        parts = stmt.split(None, 1)
        if not parts:
            continue
        kw, text = parts[0], parts[1] if len(parts) == 2 else ""
        if kw not in lists:
            words = stmt.split()
            if kw in spec.refs and len(words) == 2 or kw in spec.flags and len(words) == 1:
                got[kw] = words[-1]
                continue
            raise _At("unknown %s statement %r" % (kind, kw), stmts.index(stmt))
        elif lists[kw] is None:
            # Of the characters `_IDS` refuses, `#`, `;` and `}` never get here.
            if "{" in text or "<" in text or "~" in text or "->" in text:
                bad = next(e for e in text.split() if not _IDS.match(e))
                error = "%s %r: id %r does not read back" % (kind, name, bad)
                raise _At(error, stmts.index(stmt))
        else:
            sep = lists[kw][1:-1]
            for tok in text.split():
                if sep not in tok:
                    raise _At("%s expects %s tokens" % (kw, lists[kw]), stmts.index(stmt))
        got[kw] = got[kw] + " " + text if kw in got else text
    return got


def parse(text):
    """The document of `text`, in one pass over it with its comments cut;
    the first error met is the one raised.  A block is one match
    (`_BLOCK`): its kind and name are checked, its body is split into
    statements at `;` and newlines and each is read as it comes (`_read`),
    then its brace and what follows, its missing and then its unknown
    references, and it is built.  No line is counted as the text is read:
    an error's line is counted from its statement's place when it is raised."""
    if "#" in text:
        text = re.sub(r"#[^\n]*", "", text)
    doc, names, pos = Document(), set(), 0
    while pos < len(text):
        block = _BLOCK.match(text, pos)
        if block is None:
            rest = text[pos:]
            if rest.isspace():
                break
            raise ParseError("expected 'kind name {'", _line(text, len(text) - len(rest.lstrip())))
        kind, name, body, brace, after = block.groups()
        spec = _GRAMMAR.get(kind)
        # Most names are ASCII letters and digits, which `_NAME` allows.
        if not (name.isascii() and name.isalnum() or _NAME.match(name)):
            raise ParseError("bad name %r" % name, _line(text, block.start(1)))
        if spec is None:
            raise ParseError("unknown block kind %r" % kind, _line(text, block.start(1)))
        if name in names:
            raise ParseError("duplicate name %r" % name, _line(text, block.start(1)))
        stmts = body.replace("\n", ";").split(";")
        try:
            got = _read(kind, name, spec, stmts)
            if not brace:
                raise ParseError("unterminated block %r" % name, text.count("\n") + 1)
            if after and not after.isspace():
                raise ParseError("text after closing brace", _line(text, block.start(4)))
            if not spec.refs.keys() <= got.keys():
                missing = ", ".join(kw for kw in spec.refs if kw not in got)
                error = "%s %r needs %s" % (kind, name, missing)
                raise ParseError(error, _line(text, block.start(1)))
            for kw, target in spec.refs.items():
                if got[kw] not in getattr(doc, _GRAMMAR[target].store):
                    raise _At("unknown %s %r" % (target, got[kw]), _each(stmts, kw)[-1][0])
            getattr(doc, spec.store)[name] = spec.build(doc, got, stmts)
        except _At as at:
            err, k = at.args
            ln = _line(text, block.start(3) + sum(map(len, stmts[:k])) + k)
            if isinstance(err, str):
                raise ParseError(err, ln) from None
            raise type(err)("line %d: %s" % (ln, err.args[0]), *err.args[1:]) from None
        doc.order.append((kind, name))
        names.add(name)
        pos = block.end()
    return doc


def serialize(doc):
    """Canonical text for a document; parse(serialize(d)) == d.  The
    blocks of `order` still in their stores come first.  It refuses what
    README's "Document format" says it refuses."""
    blocks = [(kind, name) for kind, name in doc.order
              if name in getattr(doc, _GRAMMAR[kind].store)]
    blocks += [(kind, name) for kind, spec in _GRAMMAR.items()
               for name in getattr(doc, spec.store)]
    blocks = list(dict.fromkeys(blocks))
    out, names = [], set()
    for k, (kind, name) in enumerate(blocks):
        # Most names are ASCII letters and digits, which `_NAME` allows.
        ok = isinstance(name, str) and (name.isascii() and name.isalnum() or _NAME.match(name))
        if not ok:
            raise ParseError("bad name %r" % (name,))
        if name in names:
            raise ParseError("duplicate name %r" % (name,))
        names.add(name)
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
    return '"%s"' % (_untag(e) if isinstance(e, tuple) else str(e)).replace('"', '\\"')


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
