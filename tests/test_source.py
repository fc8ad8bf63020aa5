"""Rules on the package source itself."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "polab"
TRACER = PACKAGE.parents[1] / "bench" / "tracer.py"
TESTS = Path(__file__).resolve().parent


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


def _literal(path, name):
    """The literal assigned to the module-level `name` of a file, read
    without importing the file."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("%s assigns no %s" % (path.name, name))


def test_traced_names_resolve():
    """Every name the benchmark's tracer wraps still exists in the
    package: deleting one fails here rather than in a traced run."""
    names = [(m, (attr,)) for m, attr in _literal(TRACER, "SPANS")]
    names += [(m, (cls, attr)) for m, cls, attr in _literal(TRACER, "COUNTS")]
    names.append(("extend", ("coherence_level",)))
    missing = []
    for module, path in names:
        obj = importlib.import_module("polab." + module)
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(".".join((module,) + path))
    assert len(names) > 20
    assert not missing, "tracer wraps missing names: " + ", ".join(missing)


def _imported_modules(path, root=PACKAGE.parent):
    """The absolute names of the modules a file under `root` imports,
    relative imports resolved, `from m import n` giving both m and m.n."""
    parts = path.relative_to(root).with_suffix("").parts
    package = parts[:-1]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = list(package[: len(package) - node.level + 1]) if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(module + "." + alias.name for alias in node.names)
    return names


def test_oracles_stay_apart():
    """Only `polab.oracles` itself may import the reference routes: the
    fast routes are checked against them, never built from them."""
    own = PACKAGE / "oracles.py"
    found = [
        str(path.relative_to(PACKAGE.parent))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != own and "polab.oracles" in _imported_modules(path)
    ]
    assert not found, "polab.oracles imported by " + ", ".join(found)


def test_the_import_scan_resolves_every_form(tmp_path):
    (tmp_path / "polab" / "fixtures").mkdir(parents=True)
    probe = tmp_path / "polab" / "probe.py"
    for text in (
        "import polab.oracles",
        "from polab import oracles",
        "from polab.oracles import naive_c7",
        "from . import oracles",
        "from .oracles import naive_c7",
    ):
        probe.write_text(text + "\n")
        assert "polab.oracles" in _imported_modules(probe, tmp_path), text
    nested = tmp_path / "polab" / "fixtures" / "__init__.py"
    nested.write_text("from ..oracles import naive_c7\n")
    assert "polab.oracles" in _imported_modules(nested, tmp_path)
    probe.write_text("from .order import Poset\nimport random\n")
    assert "polab.oracles" not in _imported_modules(probe, tmp_path)


# The packed bit-matrix layout of `polab.order` and its kernels.
PACKING = ("_lanes", "_pack", "_unpack", "_packed_transitive")


def _references(path, names):
    """The lines of a file that reach one of `names`: as an attribute, a
    bare name or an imported name."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.alias) and node.name in names
    ]


def _outside_order(names):
    """Where a file of the package, the tests or the benchmark other than
    `polab/order.py` reaches one of `names`."""
    own = PACKAGE / "order.py"
    files = sorted(PACKAGE.rglob("*.py")) + sorted(TESTS.glob("*.py"))
    files += sorted(TRACER.parent.glob("*.py"))
    assert _references(own, names), "order.py no longer uses " + ", ".join(names)
    return [
        "%s:%d" % (path.name, line)
        for path in files
        if path != own
        for line in _references(path, names)
    ]


def test_derived_posets_stay_in_order():
    """`Poset._derived` skips the order checks, so only `polab.order`,
    which derives each poset from ones it trusts, may call it."""
    found = _outside_order(("_derived",))
    assert not found, "Poset._derived called outside polab.order: " + ", ".join(found)


def test_packing_stays_in_order():
    """Row tuples are the representation every caller sees; the packed
    layout is private to `polab.order`, so only its kernels depend on it."""
    found = _outside_order(PACKING)
    assert not found, "packing helpers used outside polab.order: " + ", ".join(found)


def test_the_derived_scan_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    for text in (
        "Poset._derived((), (), ())",
        "order.Poset._derived",
        "make = Poset._derived",
        "getattr(Poset, 'x')._derived",
    ):
        probe.write_text(text + "\n")
        assert _references(probe, ("_derived",)) == [1], text
    probe.write_text("derived = Poset(('a',), (1,))\n")
    assert _references(probe, ("_derived",)) == []


def test_the_packing_scan_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    for text in (
        "from polab.order import _pack",
        "from .order import Poset, _unpack as unpack",
        "m = _packed_transitive(rows, 3)",
        "order._lanes(3)",
    ):
        probe.write_text(text + "\n")
        assert _references(probe, PACKING) == [1], text
    probe.write_text("pack = packed = 1\nfrom polab.order import Poset\n")
    assert _references(probe, PACKING) == []


def _readme_section(title):
    """The text of one `## title` section of the README."""
    text = (PACKAGE.parents[1] / "README.md").read_text()
    start = text.index("\n## %s\n" % title)
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def test_readme_documents_every_keyword():
    """Each block kind, reference, list statement and flag of the
    `.pol` grammar is named, in backticks, in the README's format
    section."""
    from polab.docformat import _GRAMMAR

    section = _readme_section("Document format")
    words = set(_GRAMMAR)
    for spec in _GRAMMAR.values():
        words.update(spec.refs, spec.lists, spec.flags)
    missing = sorted(w for w in words if "`%s`" % w not in section)
    assert len(words) > 15
    assert not missing, "README Document format lacks " + ", ".join(missing)
