import random
import textwrap
from pathlib import Path

import pytest

import polab
import polab.cli as cli
from polab.docformat import parse
from polab.errors import LawViolation
from polab.extend import (
    ExtensionContext,
    check_restriction_preservation,
    extend_relation,
    phi_map,
)
from polab.fixtures import CATALOGUE, Fixture, load
from polab.order import Extension, MonotoneMap, Poset
from polab.polarity import CANONICAL_BUILDERS, coherence_level
from polab.randgen import random_context

from conftest import run_optimized

FIXTURES = Path(polab.__file__).parent / "fixtures"


@pytest.fixture
def doc_path(tmp_path):
    text = (
        "poset P {\n  elems a b\n  le a<b\n}\n"
        "map id {\n  from P\n  to P\n  send a->a b->b\n}\n"
        "polarity G {\n  base P\n  ex id\n  ey id\n  slice\n}\n"
    )
    path = tmp_path / "doc.pol"
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_usage_errors_exit_2(self):
        with pytest.raises(SystemExit) as e:
            cli.main(["preorder", "nothere.pol"])
        assert e.value.code == 2

    def test_unknown_polarity_exits_1(self, doc_path, capsys):
        assert cli.main(["check", doc_path, "--polarity", "H"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_fuzz_counts_are_usage_errors(self, capsys):
        """A fuzz run needs polarities of size 1 or more and a count of
        iterations that is not negative."""
        for flag, value in (("--size", "0"), ("--size", "-1"), ("--iters", "-2")):
            argv = ["fuzz", "--seed", "0", "--size", "2", "--iters", "1"]
            argv[argv.index(flag) + 1] = value
            with pytest.raises(SystemExit) as e:
                cli.main(argv)
            assert e.value.code == 2
            assert "argument %s: must be at least" % flag in capsys.readouterr().err
        assert cli.main(["fuzz", "--seed", "0", "--size", "1", "--iters", "0"]) == 0
        assert "fuzz ok: 0 iterations" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
    def test_an_unreadable_document_is_a_usage_error(self, kind, tmp_path, capsys):
        """A path that cannot be read as UTF-8 text exits 2 with one
        `error:` line naming it, not a traceback."""
        path = tmp_path / "doc.pol"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf-8":
            path.write_bytes(b"poset P {\n  elems \xff\n}\n")
        assert cli.main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot read %r: " % str(path))
        assert "Traceback" not in captured.err and captured.out == ""

    def test_check_succeeds(self, doc_path, capsys):
        assert cli.main(["check", doc_path]) == 0
        out = capsys.readouterr().out
        assert "level 3" in out and "galois yes" in out


class TestSubcommands:
    def test_check_tsv(self, doc_path, capsys):
        assert cli.main(["check", doc_path, "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith("G\t") for line in lines)

    def test_preorder_dot(self, doc_path, capsys):
        assert cli.main(["preorder", doc_path, "--kind", "rg", "--dot"]) == 0
        first = capsys.readouterr().out
        cli.main(["preorder", doc_path, "--kind", "rg", "--dot"])
        assert first == capsys.readouterr().out
        assert first.startswith("digraph")

    def test_complete(self, doc_path, capsys):
        assert cli.main(["complete", doc_path]) == 0
        assert "poset" in capsys.readouterr().out

    def test_concept(self, doc_path, capsys):
        assert cli.main(["concept", doc_path]) == 0

    def test_morphism_requires_endpoints(self, doc_path):
        with pytest.raises(SystemExit) as e:
            cli.main(["morphism", doc_path, "--from", "G"])
        assert e.value.code == 2

    def test_morphism(self, capsys):
        path = str(FIXTURES / "fix_j.pol")
        assert cli.main(["morphism", path, "--from", "G", "--to", "H"]) == 0
        assert capsys.readouterr().out == (
            "morphism m VALID embedding=yes isomorphism=no roundtrip=yes\n"
        )

    def test_check_picks_one_polarity_by_name(self, capsys):
        """Of a document with two polarities, `--polarity` reports the one named."""
        assert cli.main(["check", str(FIXTURES / "fix_j.pol"), "--polarity", "H"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "polarity H" and not any(line.startswith("polarity") for line in lines[1:])

    def test_a_morphism_failing_a_clause_is_invalid(self, tmp_path, capsys):
        """fix_j with `hp` swapping the base points: the left square no
        longer commutes, and the morphism is reported INVALID with exit 1."""
        text = (FIXTURES / "fix_j.pol").read_text()
        path = tmp_path / "bad.pol"
        path.write_text(text.replace("map hp { from P; to Y; send p->p q->q; }",
                                     "map hp { from P; to Y; send p->q q->p; }"))
        assert cli.main(["morphism", str(path), "--from", "G", "--to", "H"]) == 1
        assert capsys.readouterr().out == (
            "morphism m INVALID: commute-left: left square does not commute\n"
        )

    def test_an_undeclared_morphism_is_an_error(self, capsys):
        path = str(FIXTURES / "fix_j.pol")
        assert cli.main(["morphism", path, "--from", "H", "--to", "G"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: no declared morphism from 'H' to 'G'\n"

    def test_decompose(self, capsys):
        assert cli.main(["decompose", str(FIXTURES / "fix_e.pol")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [
            "completion K generates:",
            "  left side 7 elements, right side 7 elements",
            "  level 3 galois yes",
        ]
        assert "  'c' ~ 'm'" in lines and "  'm' ~ 'c'" not in lines


class TestFixturesCommand:
    def test_full_suite_passes(self, capsys):
        assert cli.main(["fixtures"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 25 and "FAIL" not in out

    def test_only_runs_the_named_fixture(self, capsys):
        assert cli.main(["fixtures", "--only", "fix_c"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("fix_c ") for line in lines)

    def test_unknown_fixture_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["fixtures", "--only", "fix_zz"])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'fix_zz'" in err and "fix_j" in err

    def test_corrupted_fixture_reports_its_label(self, capsys, monkeypatch):
        broken = Fixture(
            "fix_a",
            CATALOGUE[0].summary,
            lambda doc: iter([("level is three", False)]),
        )
        import polab.fixtures

        monkeypatch.setattr(
            polab.fixtures, "CATALOGUE", (broken,) + CATALOGUE[1:]
        )
        assert cli.main(["fixtures"]) == 1
        out = capsys.readouterr().out
        assert "fix_a" in out and "level is three" in out and "FAIL" in out

    def test_a_fixture_that_fails_to_load_reports_it(self, capsys, monkeypatch):
        import polab.fixtures

        monkeypatch.setattr(polab.fixtures, "load", lambda name: parse("poset P {\n  elems a\n"))
        assert cli.main(["fixtures", "--only", "fix_c"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("fix_c    loads and validates")
        assert out.rstrip().endswith("FAIL (line 3: unterminated block 'P')")


class TestFuzzCommand:
    def test_short_run_exits_0(self, capsys):
        assert cli.main(["fuzz", "--seed", "0", "--size", "4", "--iters", "24"]) == 0
        assert "fuzz ok" in capsys.readouterr().out

    def test_single_law_selection(self, capsys):
        assert (
            cli.main(
                [
                    "fuzz",
                    "--seed",
                    "1",
                    "--size",
                    "3",
                    "--iters",
                    "6",
                    "--check",
                    "coherence",
                ]
            )
            == 0
        )

    def test_any_law_may_report_a_finding(self, monkeypatch, capsys):
        """The driver counts each finding a check returns, prints its
        message, and prints the `.pol` reproducer of the first case."""
        pol = load("fix_a").polarities["G"]
        monkeypatch.setitem(cli._LAWS, "fake", (lambda rng, size: pol, lambda case: "odd"))
        argv = ["fuzz", "--seed", "0", "--size", "2", "--iters", "3", "--check", "fake"]
        assert cli.main(argv) == 0
        head, _, rest = capsys.readouterr().out.partition("\n")
        reproducer, _, tail = rest.partition("# finding 2: odd\n")
        assert head == "# finding 1: odd"
        assert parse(reproducer).polarities["G"] == pol
        assert tail == "# finding 3: odd\nfuzz ok: 3 iterations, laws: fake, findings: 3\n"

    def test_a_violation_prints_its_rerun_and_reproducer(self, monkeypatch, capsys):
        """A violation is followed by the arguments that end a run on the
        same iteration, and the `.pol` reproducer of the case it drew:
        the rerun prints the same."""
        pols = [load(name).polarities["G"] for name in ("fix_a", "fix_b")]

        def check(case):
            if case is pols[1]:
                raise LawViolation("fake", "second fixture drawn")

        monkeypatch.setitem(cli._LAWS, "fake", (lambda rng, size: rng.choice(pols), check))
        argv = ["fuzz", "--seed", "2", "--size", "2", "--iters", "50", "--check", "fake"]
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        head, rerun, reproducer = out.split("\n", 2)
        assert head == "law 'fake' violated on iteration 3: fake: second fixture drawn"
        assert rerun == "# rerun: polab fuzz --seed 2 --size 2 --iters 4 --check fake"
        assert parse(reproducer).polarities["G"] == pols[1]
        assert cli.main(rerun.split()[3:]) == 1
        assert capsys.readouterr().out == out

    def test_a_context_case_prints_its_sides(self, monkeypatch, capsys):
        """The reproducer of a context law's case holds the inner
        polarity and both side extensions, and parses back to them; a
        finding on a context prints the same document."""
        ctx = random_context(random.Random(3), 3)

        def check(case):
            raise LawViolation("fake", "context drawn")

        for law in (check, lambda case: "odd"):
            monkeypatch.setitem(cli._LAWS, "fake", (lambda rng, size: ctx, law))
            cli.main(["fuzz", "--seed", "0", "--size", "2", "--iters", "1", "--check", "fake"])
            out = capsys.readouterr().out
            start = out.index("poset P {")
            doc = parse(out[start : out.rindex("}\n") + 2])
            assert doc.polarities["G"] == ctx.inner
            assert (doc.maps["ix"], doc.maps["iy"]) == (ctx.ix.map, ctx.iy.map)
            assert out[:start].splitlines()[-1].startswith(("# rerun: ", "# finding 1: odd"))

    def test_restriction_owes_grade_3_only_under_the_guard(self):
        """The `restriction` law draws side contexts too.  Its seed-0 side
        context sends `fix_a`'s one-point X into a three-element
        antichain, so ix loses the empty meet: the guard of downward
        transfer fails, grade 3 does not transfer down, and the law holds."""
        assert cli._LAWS["restriction"][0] is cli._draw_extension
        inner = load("fix_a").polarities["G"]
        xx = Poset.antichain(["xx0", "xx1", "xx2"])
        yy = Poset.from_pairs(["yy0", "yy1", "yy2"], [("yy1", "yy2")])
        ix = Extension(MonotoneMap(inner.x, xx, {"x": "xx0"}))
        iy = Extension(MonotoneMap(inner.y, yy, {"y": "yy0"}))
        ctx = ExtensionContext(inner, ix, iy)
        sbar = extend_relation(ctx)
        outer = ctx.outer(sbar)
        pre = CANONICAL_BUILDERS[coherence_level(outer)](outer).closed()
        grades = phi_map(ctx, sbar, pre).grades
        assert not ctx._image_bounds_kept
        assert grades == {0: True, 1: True, 2: True, 3: False}
        assert check_restriction_preservation(ctx, sbar)["3"].applicable is False
        assert cli._law_restriction(ctx) is None

    def test_a_draw_that_raises_violates_its_law(self, monkeypatch, capsys):
        """A Galois draw certifies what it returns; its failure fails the
        run as a violation of the law that drew, with the rerun line and
        no reproducer: not even the case the iteration before drew."""
        import polab.randgen

        verdicts = iter((True, False))
        monkeypatch.setattr(polab.randgen, "is_galois", lambda pol: next(verdicts))
        argv = ["fuzz", "--seed", "0", "--size", "2", "--iters", "2", "--check", "roundtrip"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().out.splitlines() == [
            "law 'roundtrip' violated on iteration 1: galois: slice polarity over"
            " meet/join extensions must be Galois",
            "# rerun: polab fuzz --seed 0 --size 2 --iters 2 --check roundtrip",
        ]

    # What each patched checker returns, and the message the run prints.
    SABOTAGE = {
        "check_extension_preservation": (
            '{"5": ClauseReport(True, False)}', "clause 5 fails"
        ),
        "check_restriction_preservation": (
            '{"5": ClauseReport(True, False)}', "clause 5 fails"
        ),
        "is_n_preorder": ("SimpleNamespace(ok=True)", "disagrees with its canonical"),
        "roundtrip_holds": ("False", "does not survive the round trip"),
        "extend_relation": (
            'frozenset({("nowhere", "nothing")})', "must stay inside the generated"
        ),
        "mediate": (
            "SimpleNamespace(factors=True, unique=False)",
            "the unit must mediate itself uniquely",
        ),
        "inclusion_preorder": ("None", "extent inclusion must give the unique"),
        "z_doubleprime": ("frozenset()", "must read off the right-left block"),
        "galois_via_S1S2": ("None", "slice conditions disagree with the grade"),
        "stable_roundtrip_holds": ("False", "stable map does not survive"),
        "phi_map": (
            "SimpleNamespace(grades={0: True, 1: False})",
            "grade 1 does not transfer down",
        ),
    }

    @pytest.mark.parametrize(
        "law, checker",
        [
            ("extension", "check_extension_preservation"),
            ("restriction", "check_restriction_preservation"),
            ("coherence", "is_n_preorder"),
            ("slice", "galois_via_S1S2"),
            ("roundtrip", "roundtrip_holds"),
            ("completion", "extend_relation"),
            ("adjunction", "mediate"),
            ("concepts", "inclusion_preorder"),
            ("concepts", "z_doubleprime"),
            ("coherence", "galois_via_S1S2"),
            ("roundtrip", "stable_roundtrip_holds"),
            ("restriction", "phi_map"),
        ],
    )
    def test_violation_exits_1_under_optimize(self, law, checker):
        """`python -O` strips asserts; a failing law must still fail the
        run.  Eight draws reach every sabotaged check: the slice route of
        `coherence` first applies on the third."""
        result, message = self.SABOTAGE[checker]
        script = textwrap.dedent(
            """
            import sys
            from types import SimpleNamespace
            import polab.cli as cli
            from polab.extend import ClauseReport

            assert sys.flags.optimize
            cli.%s = lambda *args: %s
            sys.exit(cli.main(
                ["fuzz", "--seed", "0", "--size", "3", "--iters", "8", "--check", "%s"]
            ))
            """
            % (checker, result, law)
        )
        done = run_optimized(script)
        assert done.returncode == 1, done.stdout + done.stderr
        assert message in done.stdout

    def test_sabotaged_slice_conditions_exit_1_under_optimize(self):
        """The `slice` law reads the slice conditions of its Galois
        polarities, so a wrong S1 reader fails the run under `python -O`."""
        script = textwrap.dedent(
            """
            import sys
            import polab.cli as cli
            from polab import polarity

            assert sys.flags.optimize
            polarity._Frame.slices = lambda self, m, rx, ry: (self.ps[0], None)
            sys.exit(cli.main(
                ["fuzz", "--seed", "0", "--size", "3", "--iters", "4", "--check", "slice"]
            ))
            """
        )
        done = run_optimized(script)
        assert done.returncode == 1, done.stdout + done.stderr
        assert "law 'slice' violated on iteration 0" in done.stdout
        assert "# rerun: polab fuzz --seed 0 --size 3 --iters 1 --check slice\n" in done.stdout

    def test_unknown_law_exits_1(self, capsys):
        assert (
            cli.main(
                ["fuzz", "--seed", "0", "--size", "3", "--iters", "1", "--check", "zz"]
            )
            == 1
        )
