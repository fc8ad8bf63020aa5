"""Rules on the package source itself."""

import ast
import importlib
import re
import sys
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


# Top-level imports that no code of their module reads, each kept for a
# reason outside the package.
UNREAD_IMPORTS = {
    ("extend.py", "coherence_level"): "bench/tracer.py wraps it as `extend.coherence_level`",
}


def _unread_imports(path):
    """The names the top-level imports of a file bind that none of its
    code reads as a bare name or as the base of an attribute; a name met
    only in a string or a docstring is not read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [
        alias.asname or alias.name.partition(".")[0]
        for node in tree.body
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.partition(".")[0]) not in read
    ]


def test_every_import_is_read():
    """Every top-level import of a package module is read by it, but the
    exemptions, each of which must still be unread."""
    found = {
        (path.relative_to(PACKAGE).as_posix(), name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in _unread_imports(path)
    }
    unexpected = sorted(found - set(UNREAD_IMPORTS))
    assert found == set(UNREAD_IMPORTS), "unread imports: %s" % unexpected


def test_the_unread_import_scan_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    for text, want in (
        ("import random as rnd\nrnd.random()", []),
        ("import random as rnd\nrandom.random()", ["rnd"]),
        ("import os.path\nos.path.join('a')", []),
        ("from .order import _transpose\nrows = _transpose([], 0)", []),
        ("from .order import _common, _transpose\nrows = _transpose([], 0)", ["_common"]),
        ("from .order import kept as k\n@k\ndef f(x): pass", []),
        ('from .order import _transpose\ndef f():\n    """Reads `_transpose`."""', ["_transpose"]),
        ("from .order import _transpose\nname = '_transpose'", ["_transpose"]),
        ("from __future__ import annotations", []),
        ("def f():\n    import random", []),
    ):
        probe.write_text(text + "\n")
        assert _unread_imports(probe) == want, text


# The fast routes and the packed frame of `polab.order` and
# `polab.polarity`, which the oracles are compared with and so must not
# reach.
FAST_ROUTES = (
    "is_n_preorder", "check_coherence", "coherence_level", "mask_level",
    "mask_grade", "meet", "join", "meet_index", "join_index", "quotient",
    "projection", "closed", "_frame", "_outer_frame", "_rows", "_mask",
)


def _shared_with_fast_routes(path, root=PACKAGE.parent):
    """What a file shares with the fast routes: each underscore name it
    imports from the package, then each line that reaches a name of
    `FAST_ROUTES` as `_references` finds it."""
    private = sorted(
        name
        for name in _imported_modules(path, root)
        if name.startswith("polab.") and any(p.startswith("_") for p in name.split(".")[1:])
    )
    return private + _references(path, FAST_ROUTES)


def test_oracles_share_no_fast_route():
    """Each oracle is stated on the literal base of `polab.oracles`
    (`leq`, `glb`/`lub`, `naive_transitive_close`): it imports only public
    names from the package and reaches no fast route or frame, so a fault
    in a kernel cannot move a route and its reference together."""
    found = _shared_with_fast_routes(PACKAGE / "oracles.py")
    assert not found, "oracles.py shares with the fast routes: %s" % found


def test_the_fast_route_scan_sees_every_form(tmp_path):
    (tmp_path / "polab").mkdir()
    probe = tmp_path / "polab" / "oracles.py"
    for text, want in (
        ("from .order import _expressible", ["polab.order._expressible"]),
        ("from polab.polarity import _Frame as F", ["polab.polarity._Frame"]),
        ("from .order import Poset, _mask_iter", ["polab.order._mask_iter"]),
        ("import polab._private", ["polab._private"]),
        ("m = X.meet([a, b])", [1]),
        ("rows = pol._frame.rows(pol._mask)", [1, 1]),
        ("from .polarity import is_n_preorder", [1]),
        ("level = coherence_level(pol)", [1]),
        ("q = rel.closed().quotient()", [1, 1]),
    ):
        probe.write_text(text + "\n")
        assert _shared_with_fast_routes(probe, tmp_path) == want, text
    probe.write_text(
        "from .order import Poset, UnionPreorder, tag_x\n"
        "from . import polarity\n"
        "meets = glb(X, s)\n"
        "oracle_closed_relations(rows, barred)\n"
        "x = 'meet'\n"
    )
    assert _shared_with_fast_routes(probe, tmp_path) == []


# The packed bit-matrix layout of `polab.order` and its kernels.
PACKING = ("_lanes", "_pack", "_unpack", "_packed_transitive", "_spread")


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


def _sites(path, name):
    """Where a file reaches `name`, as `_references` finds it, each as
    (the dotted name of the enclosing classes and functions, line)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif (
                isinstance(child, ast.Attribute) and child.attr == name
                or isinstance(child, ast.Name) and child.id == name
                or isinstance(child, ast.alias) and child.name == name
            ):
                found.append((".".join(scope), child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return found


# The sites that build a `MonotoneMap` from an index tuple with
# `MonotoneMap._of_idx`, which looks up and checks no label: each derives
# its tuple from maps the package already holds.
INDEX_SITES = {
    ("order.py", "compose"),
    ("order.py", "macneille"),
    ("order.py", "_lift"),
    ("polarity.py", "_intermediate"),
    ("morphisms.py", "psi_of"),
    ("morphisms.py", "h_of"),
    ("delta1.py", "delta_on_objects"),
    ("delta1.py", "unit"),
    ("delta1.py", "counit_iso"),
    ("delta1.py", "mediate"),
    ("delta1.py", "universal_property"),
    ("extend.py", "phi_map"),
}


def test_index_maps_are_derived_where_pinned():
    """Parsed and user-supplied maps go through the public `MonotoneMap`
    constructor; `MonotoneMap._of_idx` is reached only at the pinned
    sites, by the package and the benchmark alike."""
    files = sorted(PACKAGE.rglob("*.py")) + sorted(TESTS.glob("*.py"))
    files += sorted(TRACER.parent.glob("*.py"))
    found = {
        (path.name, scope)
        for path in files
        for scope, _ in _sites(path, "_of_idx")
        if (path.name, scope) != ("order.py", "MonotoneMap._of_idx")
    }
    assert found == INDEX_SITES


def test_the_site_scan_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    for text, want in (
        ("f = MonotoneMap._of_idx(s, t, (0,))", [("", 1)]),
        ("from polab.order import _of_idx as make", [("", 1)]),
        ("def g(s, t):\n    return [MonotoneMap._of_idx(s, t, i) for i in ()]", [("g", 2)]),
        ("class C:\n    def m(self):\n        make = order.MonotoneMap._of_idx", [("C.m", 3)]),
    ):
        probe.write_text(text + "\n")
        assert _sites(probe, "_of_idx") == want, text
    probe.write_text("of_idx = MonotoneMap(s, t, {})\nx = '_of_idx'\n")
    assert _sites(probe, "_of_idx") == []


def test_packing_stays_in_order():
    """Callers see row tuples, or pair masks through `_PairLanes`; the
    packing helpers are private to `polab.order`, so only its kernels
    depend on them."""
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


def _lanes_built(path):
    """Where a file constructs `order._PairLanes`, as (the dotted name of
    the enclosing class and function, line): a call of the class by its
    name, as an attribute or through an import alias."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = {"_PairLanes"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(a.asname for a in node.names if a.name == "_PairLanes" and a.asname)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.Call):
                f = child.func
                if getattr(f, "id", None) in names or getattr(f, "attr", None) in names:
                    found.append((".".join(scope), child.lineno))
            visit(child, inner)

    visit(tree, ())
    return found


def test_pair_lanes_are_built_by_the_frame():
    """A condition frame keeps the lanes of its sides (`_Frame.lanes`);
    lanes built anywhere else repeat that work for sides a frame already
    has."""
    files = sorted(PACKAGE.rglob("*.py")) + sorted(TESTS.glob("*.py"))
    files += sorted(TRACER.parent.glob("*.py"))
    built = {path: _lanes_built(path) for path in files}
    assert [scope for scope, _ in built[PACKAGE / "polarity.py"]] == ["_Frame.lanes"]
    found = [
        "%s:%d" % (path.name, line)
        for path, sites in built.items()
        for scope, line in sites
        if (path.name, scope) != ("polarity.py", "_Frame.lanes")
    ]
    assert not found, "_PairLanes built outside _Frame.lanes: " + ", ".join(found)


def test_the_lanes_scan_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    for text, want in (
        ("lanes = _PairLanes(cols, rows)", [("", 1)]),
        ("lanes = order._PairLanes(cols, rows, pivots)", [("", 1)]),
        ("from .order import _PairLanes as Lanes\nlanes = Lanes(cols, rows)", [("", 2)]),
        ("def f(X, Y):\n    return _PairLanes(X.cols, Y.rows).spreads", [("f", 2)]),
        (
            "class _Frame:\n    def lanes(self):\n        return _PairLanes(self.xcols, ())",
            [("_Frame.lanes", 3)],
        ),
    ):
        probe.write_text(text + "\n")
        assert _lanes_built(probe) == want, text
    probe.write_text(
        "from polab.order import _PairLanes\n"
        "setattr(polab.order._PairLanes, 'pivot_close', None)\n"
        "lanes = frame.lanes\n"
    )
    assert _lanes_built(probe) == []


def _first_use_guards(path):
    """The lines of a file that compare an underscored attribute with
    None by identity, the hand-rolled form of a value built on first
    use."""

    def none(e):
        return isinstance(e, ast.Constant) and e.value is None

    def private(e):
        return isinstance(e, ast.Attribute) and e.attr.startswith("_")

    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
        and any(map(none, [node.left, *node.comparators]))
        and any(map(private, [node.left, *node.comparators]))
    ]


def test_first_use_state_is_a_cached_property():
    """State an object builds on first use and keeps is a
    `functools.cached_property`, not a None placeholder and a guard."""
    own = PACKAGE / "oracles.py"
    found = [
        "%s:%d" % (path.relative_to(PACKAGE.parent), line)
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != own
        for line in _first_use_guards(path)
    ]
    assert not found, "first-use guard in " + ", ".join(found)


def test_the_guard_scan_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    for text in (
        "if self._frame is None: pass",
        "x = pol._rows is not None",
        "ok = fr._saturation is not None and fr._saturation[0] == rows",
        "ok = None is ctx._kernel",
    ):
        probe.write_text(text + "\n")
        assert _first_use_guards(probe) == [1], text
    probe.write_text("a = report.level is None\nb = w is None\nc = self._x == 0\n")
    assert _first_use_guards(probe) == []


# -- every definition reached -----------------------------------------------

# Definitions of the package that only the tests reach, as `_unreached`
# labels them, each with why it stays in `src/`: at most three.
TEST_ONLY = {}

_IDENT = re.compile(r"[A-Za-z_]\w*\Z")


def _mentions(node):
    """The identifiers code refers to: bare names, attribute names,
    imported names, and string constants that are identifiers, since the
    benchmark's tracer names what it wraps in strings."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            if _IDENT.match(n.value):
                out.add(n.value)
    return out


def _definitions(path, module):
    """(name, label, mentions) per function, class, method and assigned
    name at the top of a module, and under the name "" the other code
    run on import.  A class mentions what its bases, decorators and body
    outside its methods do, dunder methods included, since they run
    unnamed.  An import `x as y` gives y as a name that mentions x; other
    top-level imports mention nothing, so a name only imported is not
    reached."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, module + "." + node.name, _mentions(node)
        elif isinstance(node, ast.ClassDef):
            own = set()
            for part in node.bases + node.decorator_list + node.body:
                name = getattr(part, "name", "")
                if isinstance(part, ast.FunctionDef) and not name.startswith("__"):
                    label = "%s.%s.%s" % (module, node.name, name)
                    yield name, label, _mentions(part)
                else:
                    own |= _mentions(part)
            yield node.name, module + "." + node.name, own
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        # A dunder such as `__version__` is read unnamed.
                        name = "" if n.id.startswith("__") else n.id
                        yield name, module + "." + n.id, _mentions(node.value)
        elif not isinstance(node, (ast.Import, ast.ImportFrom)):
            yield "", module, _mentions(node)
    for n in ast.walk(tree):
        if isinstance(n, ast.alias) and n.asname:
            yield n.asname, None, {n.name.rpartition(".")[2]}


def _unreached(package, roots):
    """The labels of the definitions of `package`, `oracles.py` aside,
    that nothing reaches from `cli.main` or from the files `roots`.  The
    scan goes by name: a definition is reached once a reached one, or a
    root, mentions its name."""
    defs = {}
    for path in sorted(package.rglob("*.py")):
        if path.name == "oracles.py":
            continue
        parts = path.relative_to(package).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for name, label, mentions in _definitions(path, module):
            defs.setdefault(name, []).append((label, mentions))
    todo = {"main", ""}
    for path in roots:
        todo |= _mentions(ast.parse(path.read_text(), filename=str(path)))
    seen = set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for _, mentions in defs.get(name, ()):
            todo |= mentions - seen
    return sorted(
        label
        for name, found in defs.items()
        if name not in seen
        for label, _ in found
        if label is not None
    )


def test_every_definition_is_reached():
    """Each function, class, method and module constant of the package
    is reached from the command line (the fuzzer included) or the
    benchmark; a route that only the tests use belongs in the tests, or
    in `oracles.py` when it is a naive reference."""
    assert len(TEST_ONLY) <= 3
    unreached = _unreached(PACKAGE, sorted(TRACER.parent.glob("*.py")))
    found = [label for label in unreached if label not in TEST_ONLY]
    assert not found, "only tests reach " + ", ".join(found)


def test_the_reach_scan_sees_every_form(tmp_path):
    package, bench = tmp_path / "polab", tmp_path / "bench"
    package.mkdir()
    bench.mkdir()
    (package / "cli.py").write_text(
        "from .m import aliased as other\n"
        "from .m import imported_only\n"
        "def main():\n"
        "    called()\n"
        "    other()\n"
        "    return C().used()\n"
        "def orphan():\n"
        "    pass\n"
    )
    (package / "m.py").write_text(
        "LIMIT = 3\n"
        "UNUSED = called\n"
        "def called():\n"
        "    return LIMIT\n"
        "def aliased(): pass\n"
        "def imported_only(): pass\n"
        "def by_attribute(): pass\n"
        "def by_import(): pass\n"
        "def by_string(): pass\n"
        "def only_oracles(): pass\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.x = from_init()\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "def from_init(): pass\n"
    )
    (package / "oracles.py").write_text("def naive():\n    only_oracles()\n")
    probe = bench / "probe.py"
    probe.write_text(
        "import polab.m as m\n"
        "from polab.m import by_import\n"
        "SPANS = (('m', 'by_string'), ('m', 'not an identifier'))\n"
        "m.by_attribute()\n"
        "# orphan\n"
    )
    assert _unreached(package, [probe]) == [
        "cli.orphan",
        "m.C.unused",
        "m.UNUSED",
        "m.imported_only",
        "m.only_oracles",
    ]


def test_reach_trace_sees_every_form(tmp_path):
    """The trace of the opt-in script `tests/reach.py` names a function
    no route entered, a decorated and a nested one included, honours an
    exemption, and names an exemption that is entered or gone."""
    import reach

    package = tmp_path / "reachprobe"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "m.py").write_text(
        "import functools\n"
        "def called():\n"
        "    return C().used() + cached()\n"
        "def never(): pass\n"
        "def exempt(): pass\n"
        "@functools.cache\n"
        "def cached():\n"
        "    def inner(): return 1\n"
        "    def unused_inner(): pass\n"
        "    return inner()\n"
        "class C:\n"
        "    def used(self): return 0\n"
        "    def unused(self): pass\n"
    )
    (package / "oracles.py").write_text("def naive(): pass\n")
    sys.path.insert(0, str(tmp_path))
    try:
        entered = reach.trace(lambda: importlib.import_module("reachprobe.m").called())
    finally:
        sys.path.remove(str(tmp_path))
        for name in [n for n in sys.modules if n.startswith("reachprobe")]:
            del sys.modules[name]
    defs = reach.definitions(package)
    assert sorted(defs) == [
        "m.C.unused", "m.C.used", "m.cached", "m.cached.inner",
        "m.cached.unused_inner", "m.called", "m.exempt", "m.never",
    ]
    missed = ["m.C.unused", "m.cached.unused_inner", "m.never"]
    assert reach.unexplained(defs, entered, {"m.exempt": "why"}) == (missed, [])
    exempt = {"m.exempt": "why", "m.called": "entered", "m.gone": "deleted"}
    assert reach.unexplained(defs, entered, exempt) == (missed, ["m.called", "m.gone"])


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
