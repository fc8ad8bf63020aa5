import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import polab
import polab.cli as cli
from polab.fixtures import CATALOGUE, Fixture


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


class TestFixturesCommand:
    def test_full_suite_passes(self, capsys):
        assert cli.main(["fixtures"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 25 and "FAIL" not in out

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

    @pytest.mark.parametrize(
        "law, checker",
        [
            ("extension", "check_extension_preservation"),
            ("restriction", "check_restriction_preservation"),
        ],
    )
    def test_violation_exits_1_under_optimize(self, law, checker):
        """`python -O` strips asserts; a failing clause must still fail
        the run."""
        script = textwrap.dedent(
            """
            import sys
            import polab.cli as cli
            from polab.extend import ClauseReport

            assert sys.flags.optimize
            cli.%s = lambda *args: {"5": ClauseReport(True, False)}
            sys.exit(cli.main(
                ["fuzz", "--seed", "0", "--size", "3", "--iters", "2", "--check", "%s"]
            ))
            """
            % (checker, law)
        )
        env = dict(os.environ, PYTHONPATH=str(Path(polab.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 1, done.stdout + done.stderr
        assert "clause 5 fails" in done.stdout

    def test_unknown_law_exits_1(self, capsys):
        assert (
            cli.main(
                ["fuzz", "--seed", "0", "--size", "3", "--iters", "1", "--check", "zz"]
            )
            == 1
        )
