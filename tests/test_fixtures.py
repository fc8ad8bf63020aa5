import pytest

import polab.cli as cli
from polab.fixtures import CATALOGUE, load
from polab.order import Poset
from polab.polarity import is_galois, r_l

from conftest import identity_polarity


class TestCatalogue:
    def test_ten_documents(self):
        assert len(CATALOGUE) == 10
        assert len({fx.name for fx in CATALOGUE}) == 10

    def test_all_documents_load(self):
        for fx in CATALOGUE:
            doc = load(fx.name)
            assert doc.polarities or doc.completions

    def test_every_check_passes(self):
        results = [r for fx in CATALOGUE for r in fx.run()]
        assert len(results) >= 25
        for r in results:
            assert r.ok, (r.fixture, r.label)
        round_trips = [r.fixture for r in results if r.label.startswith("document round-trips")]
        assert round_trips == [fx.name for fx in CATALOGUE]

    def test_filtering(self):
        only_a = next(fx for fx in CATALOGUE if fx.name == "fix_a").run()
        assert {r.fixture for r in only_a} == {"fix_a"}

    def test_unknown_name_is_an_error(self):
        parser = cli._parser()
        for fx in CATALOGUE:
            assert parser.parse_args(["fixtures", "--only", fx.name]).only == fx.name
        with pytest.raises(SystemExit) as e:
            parser.parse_args(["fixtures", "--only", "fix_zz"])
        assert e.value.code == 2


class TestIdentityPolarity:
    def test_slice_relation_over_the_identity(self):
        p = Poset.from_pairs("abc", [("a", "b"), ("a", "c")])
        pol = identity_polarity(p)
        assert pol.rel == r_l(pol.ex, pol.ey)
        assert pol.rel == frozenset(
            (a, b) for a in p.elements for b in p.elements if p.leq(a, b)
        )
        assert is_galois(pol)
