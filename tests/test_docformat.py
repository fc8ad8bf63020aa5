import pytest

from polab.docformat import parse, serialize, to_dot
from polab.errors import AntisymmetryViolation, ParseError, UnknownId
from polab.fixtures import CATALOGUE, load
from polab.order import Poset


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

    def test_slice_statement(self):
        text = (
            "poset P {\n  elems a b\n  le a<b\n}\n"
            "map id {\n  from P\n  to P\n  send a->a b->b\n}\n"
            "polarity G {\n  base P\n  ex id\n  ey id\n  slice\n}\n"
        )
        pol = parse(text).polarities["G"]
        assert ("a", "b") in pol.rel and ("b", "a") not in pol.rel


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
        built = again.build_completion("K")
        assert built == doc.build_completion("K")
        assert built.lattice == doc.posets["L"]
        assert [built(p) for p in "abcd"] == list("abcd")


class TestDot:
    def test_cover_edges_only(self):
        p = Poset.chain("abc")
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
