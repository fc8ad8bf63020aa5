import hashlib
import random
import re
from functools import lru_cache
from importlib import resources

import pytest

from polab import polarity, randgen
from polab.cli import document_of
from polab.delta1 import Delta1Completion
from polab.docformat import _ID, Document, MorphismDecl, parse, serialize, to_dot
from polab.errors import (
    PolabError,
    AntisymmetryViolation,
    CarrierMismatch,
    NotEmbedding,
    NotMonotone,
    ParseError,
    UnknownId,
)
from polab.fixtures import CATALOGUE, load
from polab.order import MonotoneMap, Poset, macneille
from polab.polarity import ExtensionPolarity, _pairs_of, r_l

from conftest import chain


class TestParsing:
    def test_minimal_document(self):
        doc = parse(
            """
            poset P {
              elems a b
              le a<b
            }
            """
        )
        assert doc.posets["P"].leq("a", "b")

    def test_comments_and_blank_lines_are_ignored(self):
        doc = parse("# heading\nposet P {\n  elems a # trailing\n}\n")
        assert doc.posets["P"].elements == ("a",)

    def test_unknown_block_kind(self):
        with pytest.raises(ParseError):
            parse("widget W {\n}\n")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParseError):
            parse("poset P {\n elems a\n}\nposet P {\n elems b\n}\n")

    def test_error_carries_the_line_number(self):
        text = "poset P {\n  elems a b\n  le a<b\n  nonsense\n}\n"
        with pytest.raises(ParseError) as e:
            parse(text)
        assert "4" in str(e.value)

    def test_antisymmetry_violation_names_the_line(self):
        text = "poset P {\n  elems a b\n  le a<b\n  le b<a\n}\n"
        with pytest.raises(AntisymmetryViolation) as e:
            parse(text)
        assert str(e.value).startswith("line 4:")

    def test_unknown_map_reference(self):
        text = (
            "poset P {\n  elems a\n}\n"
            "polarity G {\n  base P\n  ex nothere\n  ey nothere\n}\n"
        )
        with pytest.raises(ParseError):
            parse(text)

    def test_relation_elements_must_sit_on_the_sides(self):
        """The error names the `rel` line, not the `base` line."""
        for token, side in (("a~zz", "right"), ("zz~a", "left")):
            text = (
                "poset P {\n  elems a\n}\n"
                "map id {\n  from P\n  to P\n  send a->a\n}\n"
                "polarity G {\n  base P\n  ex id\n  ey id\n  rel %s\n}\n" % token
            )
            with pytest.raises(UnknownId) as e:
                parse(text)
            want = "line 13: relation uses unknown %s element 'zz'" % side
            assert str(e.value) == want

    # One document in the layouts a whole-text reader could misread.
    LAYOUTS = [
        ("crlf", "poset P {\r\n  elems a b c;\r\n  le a<b b<c;\r\n}\r\n"),
        ("braces in comments", "poset P { # { } ;\n  elems a b c # }\n  le a<b b<c # ;\n}\n"),
        ("one line", "poset P { elems a b c; le a<b b<c }\n"),
        ("no final newline", "poset P {\n  elems a b c;\n  le a<b b<c;\n}"),
        ("tabs", "poset P {\n\telems\ta b c;\n\tle a<b\tb<c;\n}\n"),
        ("comment after brace", "poset P {\n  elems a b c;\n  le a<b b<c;\n} # done\n"),
    ]

    @pytest.mark.parametrize("text", [t for _, t in LAYOUTS], ids=[n for n, _ in LAYOUTS])
    def test_layouts_read_as_the_canonical_text(self, text):
        canonical = "poset P {\n  elems a b c;\n  le a<b b<c;\n}\n"
        assert parse(text) == parse(canonical)
        assert serialize(parse(text)) == canonical

    def test_slice_statement(self):
        text = (
            "poset P {\n  elems a b\n  le a<b\n}\n"
            "map id {\n  from P\n  to P\n  send a->a b->b\n}\n"
            "polarity G {\n  base P\n  ex id\n  ey id\n  slice\n}\n"
        )
        pol = parse(text).polarities["G"]
        assert ("a", "b") in pol.rel and ("b", "a") not in pol.rel

    def test_the_slice_flag_builds_one_frame(self, monkeypatch):
        """With `slice`, the slice pairs are added on the frame of the
        polarity the given pairs build, so a block builds one frame, and
        the polarity is the one its pairs and the slice pairs give."""
        built = []
        init = polarity._Frame.__init__

        def counting(self, *args):
            built.append(self)
            init(self, *args)

        text = (
            "poset P {\n  elems a b\n  le a<b\n}\n"
            "map id {\n  from P\n  to P\n  send a->a b->b\n}\n"
            "polarity G {\n  base P\n  ex id\n  ey id\n  rel b~a\n  slice\n}\n"
        )
        monkeypatch.setattr(polarity._Frame, "__init__", counting)
        pol = parse(text).polarities["G"]
        assert len(built) == 1 and pol._frame is built[0]
        monkeypatch.undo()
        pairs = r_l(pol.ex, pol.ey) | {("b", "a")}
        assert pol == ExtensionPolarity(pol.base, pol.ex, pol.ey, pairs)

    def test_slice_refuses_two_bases_before_the_constructor(self):
        """With `slice`, two extensions over different bases meet the slice
        relation's refusal, as when the reader drew the slice pairs before
        building the polarity: it comes before any `rel` pair is read."""
        text = PRELUDE + "polarity H {\n base P\n ex id\n ey i\n slice\n rel zz~a\n}\n"
        with pytest.raises(CarrierMismatch) as e:
            parse(text)
        assert str(e.value) == "extensions must share a base poset"


# Lines 1-27; each case below appends one or more blocks from line 28 on.
PRELUDE = (
    "poset P {\n  elems a b\n  le a<b\n}\n"
    "map id {\n  from P\n  to P\n  send a->a b->b\n}\n"
    "polarity G {\n  base P\n  ex id\n  ey id\n}\n"
    "poset C {\n  elems c d\n}\n"
    "map k {\n  from C\n  to P\n  send c->a d->a\n}\n"
    "map i {\n  from C\n  to C\n  send c->c d->d\n}\n"
)

# (case, appended text, error type, message): every error `parse` raises.
ERRORS = [
    # blocks
    ("header", "poset Q\n", ParseError, "line 28: expected 'kind name {'"),
    ("bad name", "poset Q/R {\n}\n", ParseError, "line 28: bad name 'Q/R'"),
    ("after brace", "poset Q {\n elems c } x\n", ParseError,
     "line 29: text after closing brace"),
    ("unterminated", "poset Q {\n elems c\n", ParseError,
     "line 30: unterminated block 'Q'"),
    ("kind", "widget W {\n}\n", ParseError, "line 28: unknown block kind 'widget'"),
    ("duplicate, empty", "map P {\n}\n", ParseError, "line 28: duplicate name 'P'"),
    ("duplicate", "poset G {\n elems c\n}\n", ParseError,
     "line 28: duplicate name 'G'"),
    # statements
    ("statement", "poset Q {\n nonsense\n}\n", ParseError,
     "line 29: unknown poset statement 'nonsense'"),
    ("reference arity", "map m {\n from P P\n to P\n}\n", ParseError,
     "line 29: unknown map statement 'from'"),
    ("bare reference", "completion K {\n map\n}\n", ParseError,
     "line 29: unknown completion statement 'map'"),
    ("flag arity", "polarity H {\n base P\n ex id\n ey id\n slice all\n}\n",
     ParseError, "line 32: unknown polarity statement 'slice'"),
    ("le token", "poset Q {\n elems c d\n le c>d\n}\n", ParseError,
     "line 30: le expects a<b tokens"),
    ("send token", "map m {\n from P\n to P\n send a=a\n}\n", ParseError,
     "line 31: send expects a->b tokens"),
    ("rel token", "polarity H {\n base P\n ex id\n ey id\n rel a-b\n}\n",
     ParseError, "line 32: rel expects x~y tokens"),
    ("preorder le token", "preorder Q {\n polarity G\n le X.a\n}\n", ParseError,
     "line 30: le expects a<b tokens"),
    # missing references
    ("map needs", "map m {\n}\n", ParseError, "line 28: map 'm' needs from, to"),
    ("map needs to", "map m {\n from P\n}\n", ParseError,
     "line 28: map 'm' needs to"),
    ("polarity needs", "polarity H {\n ex id\n}\n", ParseError,
     "line 28: polarity 'H' needs base, ey"),
    ("preorder needs", "preorder Q {\n}\n", ParseError,
     "line 28: preorder 'Q' needs polarity"),
    ("morphism needs", "morphism f {\n from G\n to G\n hx id\n}\n", ParseError,
     "line 28: morphism 'f' needs hp, hy"),
    ("completion needs", "completion K {\n}\n", ParseError,
     "line 28: completion 'K' needs map"),
    # unknown references
    ("map to", "map m {\n from P\n to Z\n}\n", ParseError,
     "line 30: unknown poset 'Z'"),
    ("polarity base", "polarity H {\n base Z\n ex id\n ey id\n}\n", ParseError,
     "line 29: unknown poset 'Z'"),
    ("polarity ey", "polarity H {\n base P\n ex id\n ey nope\n}\n", ParseError,
     "line 31: unknown map 'nope'"),
    ("preorder polarity", "preorder Q {\n polarity nope\n}\n", ParseError,
     "line 29: unknown polarity 'nope'"),
    ("morphism to", "morphism f {\n from G\n to nope\n hx id\n hp id\n hy id\n}\n",
     ParseError, "line 30: unknown polarity 'nope'"),
    ("morphism hp", "morphism f {\n from G\n to G\n hx id\n hp P\n hy id\n}\n",
     ParseError, "line 32: unknown map 'P'"),
    ("completion map", "completion K {\n map G\n}\n", ParseError,
     "line 29: unknown map 'G'"),
    # builders
    ("antisymmetry", "poset Q {\n elems c d e\n le c<d\n le d<e e<c\n}\n",
     AntisymmetryViolation,
     "line 31: elements 'c' and 'd' are mutually below each other"),
    ("le id", "poset Q {\n elems c d\n le c<e\n}\n", UnknownId,
     "line 30: unknown element 'e'"),
    ("elems duplicate", "poset Q {\n elems c c\n}\n", UnknownId,
     "line 29: duplicate element ids"),
    ("elems duplicate after le", "poset Q {\n elems c d\n le c<d\n elems c\n}\n",
     UnknownId, "line 31: duplicate element ids"),
    ("map total", "map m {\n from P\n to P\n send a->a\n}\n", NotMonotone,
     "line 31: map is not total: missing 'b'"),
    ("map image", "map m {\n from P\n to P\n send a->a\n send b->zz\n}\n",
     UnknownId, "line 32: image 'zz' is not in the target"),
    ("map key", "map m {\n from P\n to P\n send a->a b->b\n send zz->a\n}\n",
     UnknownId, "line 32: key 'zz' is not in the source"),
    ("map monotone", "map m {\n from P\n to P\n send a->b b->a\n}\n",
     NotMonotone, "line 31: 'a' <= 'b' but images are not ordered"),
    ("ex embedding", "polarity H {\n base C\n ex k\n ey i\n}\n", NotEmbedding,
     "line 30: extension map must be an order embedding"),
    ("ey embedding", "polarity H {\n base C\n ex i\n ey k\n}\n", NotEmbedding,
     "line 31: extension map must be an order embedding"),
    ("polarity base", "polarity H {\n base P\n ex id\n ey i\n}\n", CarrierMismatch,
     "line 29: both extensions must share the base poset"),
    ("rel right", "polarity H {\n base P\n ex id\n ey id\n rel a~b\n rel a~zz\n}\n",
     UnknownId, "line 33: relation uses unknown right element 'zz'"),
    ("rel left", "polarity H {\n base P\n ex id\n ey id\n slice\n rel zz~a\n}\n",
     UnknownId, "line 33: relation uses unknown left element 'zz'"),
    ("rel first of two", "polarity H {\n base P\n ex id\n ey id\n slice\n rel a~a b~zz\n"
     " rel yy~b vv~a ww~b uu~a\n}\n",
     UnknownId, "line 33: relation uses unknown right element 'zz'"),
    ("rel repeated", "polarity H {\n base P\n ex id\n ey id\n rel a~zz\n rel b~b a~zz\n}\n",
     UnknownId, "line 32: relation uses unknown right element 'zz'"),
    ("preorder tag", "preorder Q {\n polarity G\n le a<Y.b\n}\n", ParseError,
     "line 30: carrier element must be X.name or Y.name"),
    ("preorder id", "preorder Q {\n polarity G\n le X.a<Y.b\n le X.a<Y.zz\n}\n",
     UnknownId, "line 31: pair (('X', 'a'), ('Y', 'zz')) is not on the carrier"),
    ("completion embedding", "completion K {\n map k\n}\n", NotEmbedding,
     "line 29: extension map must be an order embedding"),
    # an id `serialize` could not write back
    ("elems id", "poset Q {\n elems c\n elems d e<f\n}\n", ParseError,
     "line 30: poset 'Q': id 'e<f' does not read back"),
    ("elems id ~", "poset Q {\n elems a~b c\n}\n", ParseError,
     "line 29: poset 'Q': id 'a~b' does not read back"),
    ("elems id ->", "poset Q { elems c a->b }\n", ParseError,
     "line 28: poset 'Q': id 'a->b' does not read back"),
    ("elems id {", "poset Q {\n elems a{b\n}\n", ParseError,
     "line 29: poset 'Q': id 'a{b' does not read back"),
]


class TestErrors:
    def test_prelude_parses(self):
        doc = parse(PRELUDE)
        assert [name for _, name in doc.order] == ["P", "id", "G", "C", "k", "i"]

    @pytest.mark.parametrize(
        "text, error, message", [case[1:] for case in ERRORS], ids=[c[0] for c in ERRORS]
    )
    def test_error_type_message_and_line(self, text, error, message):
        with pytest.raises(error) as e:
            parse(PRELUDE + text)
        assert type(e.value) is error
        assert str(e.value) == message
        if error is ParseError:
            assert "line %d: " % e.value.line == message[: message.index(":") + 2]


def _edit(rng, text):
    """`text` with one seeded edit: a character or a line deleted,
    duplicated or swapped with its neighbour, or a character of the
    format's syntax, a letter or a space put in."""
    kind = rng.randrange(4)
    if kind == 0 and "\n" in text.strip():
        lines = text.split("\n")
        k = rng.randrange(len(lines) - 1)
        op = rng.randrange(3)
        if op == 0:
            del lines[k]
        elif op == 1:
            lines.insert(k, lines[k])
        else:
            lines[k], lines[k + 1] = lines[k + 1], lines[k]
        return "\n".join(lines)
    k = rng.randrange(len(text) + 1)
    if kind == 1 and k < len(text):
        return text[:k] + text[k + 1 :]
    if kind == 2 and k + 1 < len(text):
        return text[:k] + text[k + 1] + text[k] + text[k + 2 :]
    return text[:k] + rng.choice("{};#<~->\n .XYabxyP") + text[k:]


@lru_cache(maxsize=1)
def _edited_fixtures():
    """4000 seeded documents, each a fixture after one to three edits."""
    rng = random.Random(47)
    texts = [
        resources.files("polab.fixtures").joinpath(fx.name + ".pol").read_text()
        for fx in CATALOGUE
    ]
    out = []
    for _ in range(4000):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            text = _edit(rng, text)
        out.append(text)
    return out


# The `elems` statements of a text with its comments cut, and an id that
# reads back: a statement starts a line or follows `;`, `{` or `}`.
ELEMS = re.compile(r"(?:^|[;{}])[^\S\n]*elems(?=\s|$)([^;}\n]*)", re.M)
READS_BACK = re.compile(_ID + r"\Z")

# The sha256 of the outcomes of the edited fixtures whose `elems` ids all
# read back, as the reader of commit e82a057 gave them, before it refused
# the others.
PINNED_OUTCOMES = "939f86418b4231b6a1876343bbff0feb46594cb1663fcdf3097965804f448696"


class TestMutations:
    def test_edited_fixtures_parse_or_raise_a_polab_error(self):
        """The edited fixtures either parse or raise a `PolabError`:
        untrusted text never reaches a bare exception of the reader or a
        constructor."""
        outcomes = {"parsed": 0, "refused": 0}
        for text in _edited_fixtures():
            try:
                parse(text)
            except PolabError:
                outcomes["refused"] += 1
            else:
                outcomes["parsed"] += 1
        assert min(outcomes.values()) > 400, outcomes

    def test_outcomes_are_those_pinned(self):
        """Over the edited fixtures whose ids all read back, each outcome,
        the text `serialize` writes of the document or the error's type
        and message, hashes to the pinned digest."""
        digest, kept = hashlib.sha256(), 0
        for text in _edited_fixtures():
            cut = re.sub(r"#[^\n]*", "", text)
            if not all(READS_BACK.match(e) for m in ELEMS.finditer(cut) for e in m[1].split()):
                continue
            kept += 1
            try:
                out = serialize(parse(text))
            except PolabError as err:
                out = "%s: %s" % (type(err).__name__, err)
            digest.update(out.encode() + b"\0")
        assert kept == 3986
        assert digest.hexdigest() == PINNED_OUTCOMES


class TestRoundTrip:
    def test_fixture_documents_round_trip(self):
        for fx in CATALOGUE:
            doc = load(fx.name)
            assert parse(serialize(doc)) == doc

    def test_serialization_is_deterministic(self):
        doc = load("fix_a")
        assert serialize(doc) == serialize(parse(serialize(doc)))

    def test_completion_block_round_trips(self):
        doc = load("fix_e")
        text = serialize(doc)
        assert "completion K {\n  map cut;\n}" in text
        again = parse(text)
        assert again.completions == doc.completions
        built = Delta1Completion(again.completions["K"])
        assert built == Delta1Completion(doc.completions["K"])
        assert built.lattice == doc.posets["L"]
        assert [built(p) for p in "abcd"] == list("abcd")


    def test_seeded_polarities_round_trip(self):
        """1000 draws of the `grade` pool's kinds (arbitrary, slice over
        random embeddings, arbitrary, Galois) at base sizes 1 to 9 read
        back equal, and each poset read has as `cols` the transpose of its
        `rows` (`Poset.__eq__` compares `rows` alone)."""
        rng = random.Random(15)
        for k in range(1000):
            size, kind = 1 + k % 9, k // 9 % 4
            if kind == 1:
                base = randgen.random_poset(rng, size)
                ex = randgen.random_embedding(rng, base, prefix="x")
                ey = randgen.random_embedding(rng, base, prefix="y")
                pol = ExtensionPolarity(base, ex, ey, r_l(ex, ey))
            elif kind == 3:
                pol = randgen.random_galois_polarity(rng, size)
            else:
                pol = randgen.random_extension_polarity(rng, size)
            doc = document_of(pol)
            again = parse(serialize(doc))
            assert again.polarities["G"] == pol
            assert again == doc
            for p in again.posets.values():
                n = len(p)
                assert p.cols == tuple(
                    sum(1 << i for i in range(n) if p.rows[i] >> j & 1) for j in range(n)
                )

    def test_ids_with_dashes_and_angles_round_trip(self):
        p = chain(["a-", "-", "b>", ">c", "1"])
        doc = Document(posets={"P": p}, maps={"m": MonotoneMap.identity(p)})
        assert parse(serialize(doc)) == doc

    @pytest.mark.parametrize(
        "ids, bad",
        [([1, 2], 1), (["a b", "c"], "a b"), (["a", "b<c"], "b<c"), (["x->y"], "x->y"),
         (["a~b"], "a~b"), (["a;"], "a;"), (["#"], "#"), (["}"], "}"), ([""], "")],
    )
    def test_ids_that_would_not_read_back_are_refused(self, ids, bad):
        doc = Document(posets={"P": chain(ids)})
        with pytest.raises(ParseError) as e:
            serialize(doc)
        assert str(e.value) == "poset 'P': id %r does not read back" % (bad,)

    def test_names_that_would_not_read_back_are_refused(self):
        doc = Document(posets={"P Q": chain("ab")})
        with pytest.raises(ParseError) as e:
            serialize(doc)
        assert str(e.value) == "bad name 'P Q'"

    @pytest.mark.parametrize(
        "dropped, missing",
        [
            (("posets",), "the source poset of map 'ex'"),
            (("maps",), "the ex map of polarity 'G'"),
            (("polarities",), "the polarity of preorder 'Q'"),
            (("maps", "polarities", "preorders"), "the map of completion 'K'"),
        ],
    )
    def test_a_block_naming_a_missing_one_is_refused(self, dropped, missing):
        doc = load("fix_e")
        doc.order.clear()
        for store in dropped:
            getattr(doc, store).clear()
        with pytest.raises(UnknownId) as e:
            serialize(doc)
        assert str(e.value) == missing + " is not in the document"

    def test_a_stale_order_entry_is_not_written(self):
        """`order` is the layout as read: an entry whose block was deleted
        is skipped, and a block naming a deleted one is still refused."""
        doc = parse("poset P {\n  elems a\n}\nposet Q {\n  elems b\n}\n")
        del doc.posets["Q"]
        assert serialize(doc) == "poset P {\n  elems a;\n}\n"
        doc = parse("poset P {\n  elems a\n}\nmap m {\n  from P\n  to P\n  send a->a\n}\n")
        del doc.posets["P"]
        with pytest.raises(UnknownId) as e:
            serialize(doc)
        assert str(e.value) == "the source poset of map 'm' is not in the document"

    def test_a_name_two_blocks_share_is_refused(self):
        """The text would not read back, so none is written."""
        p = chain("ab")
        doc = Document(posets={"A": p}, maps={"A": MonotoneMap.identity(p)})
        with pytest.raises(ParseError) as e:
            serialize(doc)
        assert str(e.value) == "duplicate name 'A'"

    def test_morphism_blocks_round_trip(self):
        """In the order the text gave, and after every block they name
        when the document keeps no order."""
        doc = load("fix_j")
        again = parse(serialize(doc))
        assert again == doc
        assert again.build_morphism("m") == doc.build_morphism("m")
        doc.order.clear()
        assert parse(serialize(doc)) == doc

    @pytest.mark.parametrize("kind, name", [("polarity", "G"), ("map", "hy")])
    def test_a_morphism_naming_a_later_block_is_refused(self, kind, name):
        doc = load("fix_j")
        doc.order.remove((kind, name))
        doc.order.append((kind, name))
        with pytest.raises(UnknownId) as e:
            serialize(doc)
        want = "morphism 'm' names %s %r, which does not come before it" % (kind, name)
        assert str(e.value) == want

    def test_a_morphism_naming_a_missing_block_is_refused(self):
        doc = Document(morphisms={"f": MorphismDecl("G", "G", "h", "h", "h")})
        with pytest.raises(UnknownId) as e:
            serialize(doc)
        assert str(e.value) == (
            "morphism 'f' names polarity 'G', which does not come before it"
        )


# The label-level writer that the emitters replaced, kept literally as
# the reference: `sorted(pol.rel)`, the map called per element, covers by
# their definition from `leq`, and `pre.rel(a, b)` for every pair.


def _ref_name(store, value):
    return next(k for k, v in store.items() if v == value)


def _ref_poset(doc, p):
    els = p.elements
    covers = [
        (a, b) for a in els for b in els
        if a != b and p.leq(a, b)
        and not any(c not in (a, b) and p.leq(a, c) and p.leq(c, b) for c in els)
    ]
    stmts = ["elems " + " ".join(els)]
    if covers:
        stmts.append("le " + " ".join("%s<%s" % ab for ab in covers))
    return stmts


def _ref_map(doc, m):
    stmts = ["from " + _ref_name(doc.posets, m.source), "to " + _ref_name(doc.posets, m.target)]
    if m.source.elements:
        stmts.append("send " + " ".join("%s->%s" % (p, m(p)) for p in m.source.elements))
    return stmts


def _ref_polarity(doc, pol):
    stmts = ["base " + _ref_name(doc.posets, pol.base)]
    stmts += ["ex " + _ref_name(doc.maps, pol.ex.map), "ey " + _ref_name(doc.maps, pol.ey.map)]
    if pol.rel:
        stmts.append("rel " + " ".join("%s~%s" % ab for ab in sorted(pol.rel)))
    return stmts


def _ref_preorder(doc, pre):
    carriers = {k: tuple(v.carrier()) for k, v in doc.polarities.items()}
    pairs = [
        "%s.%s<%s.%s" % (*a, *b)
        for a in pre.carrier for b in pre.carrier
        if a != b and pre.rel(a, b)
    ]
    stmts = ["polarity " + _ref_name(carriers, pre.carrier)]
    if pairs:
        stmts.append("le " + " ".join(pairs))
    return stmts


def _ref_morphism(doc, d):
    refs = zip(("from", "to", "hx", "hp", "hy"), d)
    return ["%s %s" % ref for ref in refs]


def _ref_completion(doc, ext):
    return ["map " + _ref_name(doc.maps, ext.map)]


REFERENCE = {
    "poset": ("posets", _ref_poset),
    "map": ("maps", _ref_map),
    "polarity": ("polarities", _ref_polarity),
    "preorder": ("preorders", _ref_preorder),
    "morphism": ("morphisms", _ref_morphism),
    "completion": ("completions", _ref_completion),
}


def reference_text(doc):
    blocks = list(doc.order)
    for kind, (store, _) in REFERENCE.items():
        blocks += [(kind, name) for name in getattr(doc, store)]
    out = []
    for kind, name in dict.fromkeys(blocks):
        store, emit = REFERENCE[kind]
        stmts = ";\n  ".join(emit(doc, getattr(doc, store)[name]))
        out.append("%s %s {\n  %s;\n}" % (kind, name, stmts))
    return "\n".join(out) + "\n"


def _seeded_documents():
    """Documents of seeded polarities of every kind the benchmark draws,
    junk sides and sides of ten or more elements among them, each with
    the relabelled cut completion of its base; and one whose base poset
    is stored as an equal but distinct object."""
    rng = random.Random(47)
    for k in range(240):
        size, kind = 1 + k % 9, k // 9 % 3
        if kind == 0:
            pol = randgen.random_extension_polarity(rng, size, junk_theta=0.6)
        elif kind == 1:
            base = randgen.random_poset(rng, size)
            ex = randgen.random_embedding(rng, base, junk=rng.randint(0, 2), prefix="x")
            ey = randgen.random_embedding(rng, base, prefix="y")
            pol = ExtensionPolarity(base, ex, ey, r_l(ex, ey))
        else:
            pol = randgen.random_galois_polarity(rng, size)
        doc = document_of(pol)
        lattice = macneille(pol.base).target
        labels = {e: "c%d" % i for i, e in enumerate(lattice.elements)}
        doc.posets["L"] = lattice.relabel(labels.__getitem__)
        yield doc
    doc = document_of(pol)
    doc.posets["P"] = Poset(pol.base.elements, pol.base.rows)
    assert doc.posets["P"] is not pol.base
    yield doc


class TestWriter:
    def test_the_writer_prints_what_the_label_writer_printed(self):
        """Byte for byte, on seeded documents and every fixture; among
        the seeded ones, relations whose label order is not their mask
        order, `xiso_` ids and sides of ten or more elements."""
        docs = list(_seeded_documents()) + [load(fx.name) for fx in CATALOGUE]
        texts = [serialize(doc) for doc in docs]
        assert texts == [reference_text(doc) for doc in docs]
        pols = [pol for doc in docs for pol in doc.polarities.values()]
        read = [_pairs_of(pol.x.elements, pol.y.elements, pol._mask) for pol in pols]
        assert any(sorted(pairs) != pairs for pairs in read)
        assert any("xiso_" in text for text in texts)
        assert max(len(pol.x) for pol in pols) >= 11
        kinds = {kind for doc in docs for kind, _ in doc.order}
        assert {"preorder", "morphism", "completion"} <= kinds

    def test_the_pair_reader_lists_the_view(self):
        """`_pairs_of` lists the pairs of a mask once each, in mask order,
        and its set is the polarity's `rel` and the frame's `pairs`."""
        rng = random.Random(11)
        for k in range(300):
            pol = randgen.random_extension_polarity(rng, 1 + k % 7)
            xs, ys = pol.x.elements, pol.y.elements
            pairs = _pairs_of(xs, ys, pol._mask)
            ny = len(ys)
            bits = [p for p in range(len(xs) * ny) if pol._mask >> p & 1]
            assert pairs == [(xs[p // ny], ys[p % ny]) for p in bits]
            assert frozenset(pairs) == pol.rel == pol._frame.pairs(pol._mask)


class TestDot:
    def test_cover_edges_only(self):
        p = chain("abc")
        dot = to_dot(p)
        assert '"a" -> "b"' in dot and '"b" -> "c"' in dot
        assert '"a" -> "c"' not in dot

    def test_filled_nodes_are_styled(self):
        p = Poset.antichain("ab")
        dot = to_dot(p, filled=("a",))
        assert "filled" in dot

    def test_output_is_deterministic(self):
        p = Poset.from_pairs("abcd", [("a", "b"), ("c", "d")])
        assert to_dot(p) == to_dot(p)

    def test_a_quote_in_an_id_is_escaped(self):
        """The reader accepts the id `a"b`; DOT reads it back only with
        the quote escaped, tagged or not."""
        p = parse('poset P {\n  elems a"b c\n  le a"b<c\n}\n').posets["P"]
        assert '  "a\\"b" -> "c";\n' in to_dot(p)
        tagged = p.relabel(lambda e: ("X", e))
        assert '  "X.a\\"b" [style=filled];\n' in to_dot(tagged, filled=[("X", 'a"b')])
