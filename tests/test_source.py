"""Rules on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polab"


def test_no_bare_asserts():
    """Laws and certificates raise typed errors: `python -O` strips an
    `assert`, and the check with it."""
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    found = [
        "%s:%d" % (path.relative_to(PACKAGE.parent), node.lineno)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "bare assert in " + ", ".join(found)
