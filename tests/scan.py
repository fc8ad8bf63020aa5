"""One scope-aware walk over the repository's Python source, shared by the
source rules of `test_source.py` and the trace of `reach.py`.

A file is read and parsed once per process (`read`).  Its nodes are
listed once, in source order, each with the dotted names of the classes
and functions around it, and each imported name is resolved once to its
absolute dotted name, relative imports from the file's place.
"""

from __future__ import annotations

import ast
from functools import cache
from pathlib import Path, PurePosixPath
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polab"


class Source(NamedTuple):
    """A parsed file.  `name` is its path from the directory its imports
    resolve from (`polab/order.py`, `tests/conftest.py`); `nodes` holds
    (scope, line, node) per node, scope "" at module level; `imports`
    maps each imported `ast.alias` to the absolute name it imports."""

    name: str
    tree: ast.Module
    nodes: tuple
    imports: dict


def source(name, text):
    """The `Source` of `text` read as the file `name`."""
    tree = ast.parse(text, filename=name)
    package = PurePosixPath(name).parent.parts
    nodes, imports = [], {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            nodes.append((scope, getattr(child, "lineno", None), child))
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + "." + child.name if scope else child.name
            elif isinstance(child, ast.ImportFrom):
                base = package[: len(package) - child.level + 1] if child.level else ()
                prefix = ".".join(base + ((child.module,) if child.module else ()))
                for alias in child.names:
                    imports[alias] = prefix + "." + alias.name
            elif isinstance(child, ast.Import):
                imports.update((alias, alias.name) for alias in child.names)
            visit(child, inner)

    visit(tree, "")
    return Source(name, tree, tuple(nodes), imports)


@cache
def read(path, root):
    """The `Source` of the file `path`, named from `root`."""
    return source(path.relative_to(root).as_posix(), path.read_text())


def package(directory=PACKAGE):
    """Every file of a package, named from the package's parent."""
    return [read(path, directory.parent) for path in sorted(directory.rglob("*.py"))]


def repository():
    """The package, the tests and the benchmark."""
    tops = [path for top in ("tests", "bench") for path in sorted((ROOT / top).glob("*.py"))]
    return package() + [read(path, ROOT) for path in tops]


def module(src):
    """The dotted module name of a package file, the package's own name
    left off: "" for the package's `__init__.py`."""
    parts = PurePosixPath(src.name).with_suffix("").parts[1:]
    return ".".join(parts[:-1] if parts and parts[-1] == "__init__" else parts)


def name_of(node):
    """The name an attribute, a bare name or an imported name reaches;
    None for any other node."""
    for kind, field in ((ast.Attribute, "attr"), (ast.Name, "id"), (ast.alias, "name")):
        if isinstance(node, kind):
            return getattr(node, field)
    return None

