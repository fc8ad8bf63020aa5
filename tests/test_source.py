"""Rules on the repository's own source, all read through `scan.py`.

Each site rule is a row of `RULES`: the files it scans, the nodes it
flags, and how many flagged nodes each allowed (file, scope) site holds
(scope "*": the whole file, any number).  A row runs as the test named
after it, and fails on a flagged node anywhere else or an allowed site
that holds another number.  `PROBES` holds, per scan, the forms it must
see; each scan has a form it flags and a form it passes.  Unread
imports, the tracer's names, reach by name (`reach.unreached`), the
README's keywords and the README's names have other shapes and keep their
own checks.
"""

import ast
import importlib
import pkgutil
import re
import sys
from collections import Counter
from functools import partial
from typing import Callable, NamedTuple

import reach
import scan
from conftest import run_optimized
from scan import ROOT, name_of

TRACER = ROOT / "bench" / "tracer.py"
ORACLES = "polab/oracles.py"
ANYWHERE = "*"
ANY = None  # the count of a whole-file site: any number, at least one


class Row(NamedTuple):
    name: str
    scans: Callable  # file name -> whether the row scans the file
    match: Callable  # (Source, node) -> whether the node is flagged
    allowed: dict  # (file, scope) -> how many flagged nodes it holds
    probe: str  # the name of the row's probe test


def _package(name):
    return name.startswith("polab/")


def _outside_oracles(name):
    return _package(name) and name != ORACLES


def _reaches(*names):
    return lambda src, node: name_of(node) in names


# The fast routes and the packed frame of `polab.order` and
# `polab.polarity`, which the oracles are compared with and so must not
# reach.
FAST_ROUTES = (
    "is_n_preorder", "check_coherence", "coherence_level", "mask_level",
    "mask_grade", "meet", "join", "meet_index", "join_index", "quotient",
    "projection", "closed", "_frame", "_outer_frame", "_rows", "_mask",
)


def _shares_a_fast_route(src, node):
    """An underscore name imported from the package, or a name of
    `FAST_ROUTES` reached."""
    top, *parts = src.imports.get(node, "").split(".")
    private = top == "polab" and any(part.startswith("_") for part in parts)
    return private or name_of(node) in FAST_ROUTES


def _builds_lanes(src, node):
    """A call of `order._PairLanes` by its name, as an attribute or
    through an import alias."""
    names = {a.asname or a.name for a, full in src.imports.items() if full.endswith("._PairLanes")}
    return isinstance(node, ast.Call) and name_of(node.func) in names | {"_PairLanes"}


def _none_guard(src, node):
    """An underscored attribute compared with None by identity: the
    hand-rolled guard of a value built on first use."""
    sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
    return (
        any(isinstance(op, (ast.Is, ast.IsNot)) for op in getattr(node, "ops", ()))
        and any(isinstance(e, ast.Constant) and e.value is None for e in sides)
        and any(isinstance(e, ast.Attribute) and e.attr.startswith("_") for e in sides)
    )


# The sites that build a relation from a packed matrix with
# `UnionPreorder._of_packed`, which checks no order law: a relation's
# closure, a frame's relations and the enumerated n-preorders, each on a
# carrier and index the caller already holds.
PACKED_SITES = {
    ("polab/order.py", "UnionPreorder._closure"): 1,
    ("polab/polarity.py", "_Frame.relation"): 1,
    ("polab/polarity.py", "enumerate_n_preorders"): 1,
}

# The functions of `polab.cli` that read the fuzzer's random source: the
# draws and the driver.
FUZZ_DRAWS = {
    ("polab/cli.py", scope): ANY for scope in ("_sized", "_draw_extension", "_draw_corpus", "cmd_fuzz")
}

# The functions that hold a `functools.cache` or `lru_cache`, with how
# many: the bounded kernels of `polab.order`, the one-point target and
# the two memos of the cut draws in `polab.randgen`, and the two caches
# `check_adjunction` builds for one call.
PROCESS_CACHES = {
    ("polab/order.py", "_lanes"): 1,
    ("polab/order.py", "_carrier_blocks"): 1,
    ("polab/randgen.py", "collapse_target"): 1,
    ("polab/randgen.py", "_closed_cuts"): 1,
    ("polab/randgen.py", "_cut_draw"): 1,
    ("polab/delta1.py", "check_adjunction"): 2,
}


def _caches(src, node):
    """`functools.cache` or `functools.lru_cache`, as an attribute of the
    module under any alias or as a name imported from it."""
    made = ("functools.cache", "functools.lru_cache")
    modules = {a.asname or a.name for a, full in src.imports.items() if full == "functools"}
    names = {a.asname or a.name for a, full in src.imports.items() if full in made}
    if isinstance(node, ast.Attribute):
        base = node.value
        return isinstance(base, ast.Name) and base.id in modules and node.attr in ("cache", "lru_cache")
    return isinstance(node, ast.Name) and node.id in names


def _stores_a_label_form(src, node):
    """A store to an attribute named `rel` or `assignment`, the label
    forms of a polarity's relation and of a map."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("rel", "assignment")
        and isinstance(node.ctx, ast.Store)
    )


def _reads_a_label_view(src, node):
    """A load of an attribute named `rel` or `assignment`, the label views
    of a polarity's relation and of a map, or `_mask_iter` reached."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("rel", "assignment")
        and isinstance(node.ctx, ast.Load)
    ) or name_of(node) == "_mask_iter"


# The packed bit-matrix layout of `polab.order` and its kernels.
PACKING = ("_lanes", "_pack", "_unpack", "_packed_transitive", "_spread")

RULES = (
    # Laws and certificates raise typed errors: `python -O` strips an
    # `assert`, and the check with it.
    Row("no_bare_asserts", _package, lambda src, node: isinstance(node, ast.Assert),
        {}, "test_the_assert_scan_sees_every_form"),
    # Only `polab.oracles` itself may import the reference routes: the
    # fast routes are checked against them, never built from them.
    Row("oracles_stay_apart", _outside_oracles,
        lambda src, node: (src.imports.get(node, "") + ".").startswith("polab.oracles."),
        {}, "test_the_import_scan_resolves_every_form"),
    # Each oracle is stated on the literal base of `polab.oracles` (`leq`,
    # `glb`/`lub`, `naive_transitive_close`), so a fault in a kernel
    # cannot move a route and its reference together.
    Row("oracles_share_no_fast_route", lambda name: name == ORACLES, _shares_a_fast_route,
        {}, "test_the_fast_route_scan_sees_every_form"),
    # `Poset._derived` skips the order checks, so only `polab.order`,
    # which derives each poset from ones it trusts, may call it.
    Row("derived_posets_stay_in_order", lambda name: True, _reaches("_derived"),
        {("polab/order.py", ANYWHERE): ANY}, "test_the_derived_scan_sees_every_form"),
    # Read or supplied relations go through the public `UnionPreorder`
    # constructor, which checks the matrix fits its carrier; the tests
    # call `_of_packed` directly, so they are not scanned.
    Row("packed_relations_are_pinned", lambda name: _package(name) or name.startswith("bench/"),
        _reaches("_of_packed"), PACKED_SITES, "test_the_packed_scan_sees_every_form"),
    # Callers see row tuples, or pair masks through `_PairLanes`; only the
    # kernels of `polab.order` depend on the packing.
    Row("packing_stays_in_order", lambda name: True, _reaches(*PACKING),
        {("polab/order.py", ANYWHERE): ANY}, "test_the_packing_scan_sees_every_form"),
    # A condition frame keeps the lanes of its sides; lanes built anywhere
    # else repeat that work for sides a frame already has.
    Row("pair_lanes_are_built_by_the_frame", lambda name: True, _builds_lanes,
        {("polab/polarity.py", "_Frame.lanes"): 1}, "test_the_lanes_scan_sees_every_form"),
    # State an object builds on first use and keeps is an
    # `order.cached_property`: not a None placeholder and a guard ...
    Row("first_use_state_is_a_cached_property", _outside_oracles, _none_guard,
        {}, "test_the_guard_scan_sees_every_form"),
    # ... nor a value kept by hand in the instance `__dict__`, which only
    # the one write in `cached_property.__get__` touches.
    Row("instance_dicts_stay_in_cached_property", _outside_oracles,
        lambda src, node: isinstance(node, ast.Attribute) and node.attr == "__dict__",
        {("polab/order.py", "cached_property.__get__"): 1}, "test_the_dict_scan_sees_every_form"),
    # A cache shares what it keeps between callers for as long as it
    # lives, so each one is pinned; the naive references of `oracles.py`
    # are not scanned.
    Row("process_caches_are_pinned", _outside_oracles, _caches,
        PROCESS_CACHES, "test_the_cache_scan_sees_every_form"),
    # A value stores only the index form its kernels read: a polarity's
    # pair set `rel` and a map's label dict `assignment` are views, each
    # built on first use by its `cached_property`.
    Row("label_forms_are_views", _outside_oracles, _stores_a_label_form,
        {}, "test_the_label_scan_sees_every_form"),
    # The writer prints a document from what each value stores: the pair
    # mask, the index tuples and the bit-rows, not the label views built
    # from them, and reads a mask with the kernels' low-bit loop.
    Row("the_writer_builds_no_label_view", lambda name: name == "polab/docformat.py",
        _reads_a_label_view, {}, "test_the_writer_scan_sees_every_form"),
    # A fuzz law's check takes only its case, so the census can run it on
    # enumerated input.
    Row("fuzz_checks_draw_nothing", lambda name: name == "polab/cli.py",
        lambda src, node: isinstance(node, ast.Name) and node.id in ("rng", "random"),
        FUZZ_DRAWS, "test_the_draw_scan_sees_every_form"),
)


def _sites(row, src):
    """The (scope, line) of each node of a file that `row` flags."""
    return [(scope, line) for scope, line, node in src.nodes if row.match(src, node)]


def _pinned(row, src, scope):
    """The site of `row` that a node flagged in `scope` of a file counts
    toward; None for a stray."""
    site = (src.name, ANYWHERE) if (src.name, ANYWHERE) in row.allowed else (src.name, scope)
    return site if site in row.allowed else None


def _check(row):
    held, stray = Counter(), []
    for src in (src for src in scan.repository() if row.scans(src.name)):
        for scope, line in _sites(row, src):
            site = _pinned(row, src, scope)
            if site is not None:
                held[site] += 1
            else:
                stray.append("%s:%d (%s)" % (src.name, line, scope))
    assert not stray, "%s: flagged at %s" % (row.name, ", ".join(stray))
    off = [(s, held[s]) for s, n in row.allowed.items() if held[s] != n and not (n is ANY and held[s])]
    assert not off, "%s: (site, flagged nodes) off their pinned count: %s" % (row.name, off)


# Top-level imports that no code of their module reads, each kept for a
# reason outside the package.
UNREAD_IMPORTS = {
    ("polab/extend.py", "coherence_level"): "bench/tracer.py wraps it as `extend.coherence_level`",
}


def _unread_imports(src):
    """The names the module-level imports of a file bind, under a `try:`
    or an `if` too, that none of its code reads as a bare name or as the
    base of an attribute; a name met only in a string or a docstring is
    not read."""
    read = {node.id for _, _, node in src.nodes if isinstance(node, ast.Name)}
    bound = (
        alias.asname or alias.name.partition(".")[0]
        for scope, _, alias in src.nodes
        if scope == "" and alias in src.imports
        and not src.imports[alias].startswith("__future__.")
    )
    return [name for name in bound if name not in read]


def test_every_import_is_read():
    """Every top-level import of a package module is read by it, but the
    exemptions, each of which must still be unread."""
    found = {(src.name, name) for src in scan.package() for name in _unread_imports(src)}
    unexpected = sorted(found - set(UNREAD_IMPORTS))
    assert found == set(UNREAD_IMPORTS), "unread imports: %s" % unexpected


SCANS = {row.name: partial(_sites, row) for row in RULES}
SCANS["every_import_is_read"] = _unread_imports

# Per scan, the forms it must see: (source text, what the scan returns),
# the text read as `polab/probe.py` unless a third element names a file.
PROBES = {
    "no_bare_asserts": [
        ("assert ok, 'law'", [("", 1)]),
        ("def f(x):\n    assert x", [("f", 2)]),
        ("if not ok:\n    raise LawViolation('law', 'msg', x)", []),
    ],
    "oracles_stay_apart": [
        ("import polab.oracles", [("", 1)]),
        ("from polab import oracles", [("", 1)]),
        ("from polab.oracles import naive_c7", [("", 1)]),
        ("from . import oracles", [("", 1)]),
        ("from .oracles import naive_c7", [("", 1)]),
        ("from ..oracles import naive_c7", [("", 1)], "polab/fixtures/__init__.py"),
        ("from .order import Poset\nimport random", []),
    ],
    "every_import_is_read": [
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
        ("try:\n    import random\nexcept ImportError:\n    pass", ["random"]),
    ],
    "oracles_share_no_fast_route": [
        ("from .order import _expressible", [("", 1)]),
        ("from polab.polarity import _Frame as F", [("", 1)]),
        ("from .order import Poset, _mask_iter", [("", 1)]),
        ("import polab._private", [("", 1)]),
        ("m = X.meet([a, b])", [("", 1)]),
        ("rows = pol._frame.rows(pol._mask)", [("", 1), ("", 1)]),
        ("from .polarity import is_n_preorder", [("", 1)]),
        ("level = coherence_level(pol)", [("", 1)]),
        ("q = rel.closed().quotient()", [("", 1), ("", 1)]),
        ("from .order import Poset, UnionPreorder, tag_x\nfrom . import polarity\n"
         "meets = glb(X, s)\noracle_closed_relations(rows, barred)\nx = 'meet'", []),
    ],
    "derived_posets_stay_in_order": [
        ("Poset._derived((), (), ())", [("", 1)]),
        ("order.Poset._derived", [("", 1)]),
        ("make = Poset._derived", [("", 1)]),
        ("getattr(Poset, 'x')._derived", [("", 1)]),
        ("derived = Poset(('a',), (1,))", []),
    ],
    "packing_stays_in_order": [
        ("from polab.order import _pack", [("", 1)]),
        ("from .order import Poset, _unpack as unpack", [("", 1)]),
        ("m = _packed_transitive(rows, 3)", [("", 1)]),
        ("order._lanes(3)", [("", 1)]),
        ("pack = packed = 1\nfrom polab.order import Poset", []),
    ],
    "packed_relations_are_pinned": [
        ("u = UnionPreorder._of_packed(carrier, index, 0, False)", [("", 1)]),
        ("from polab.order import UnionPreorder\nmake = UnionPreorder._of_packed", [("", 2)]),
        ("def walk(fr, m):\n    return order.UnionPreorder._of_packed(fr.carrier, fr.index, m, True)",
         [("walk", 2)]),
        ("u = UnionPreorder(carrier, rows)\nm = u.packed\nof_packed = '_of_packed'", []),
    ],
    "pair_lanes_are_built_by_the_frame": [
        ("lanes = _PairLanes(cols, rows)", [("", 1)]),
        ("lanes = order._PairLanes(cols, rows, pivots)", [("", 1)]),
        ("from .order import _PairLanes as Lanes\nlanes = Lanes(cols, rows)", [("", 2)]),
        ("def f(X, Y):\n    return _PairLanes(X.cols, Y.rows).spreads", [("f", 2)]),
        ("class _Frame:\n    def lanes(self):\n        return _PairLanes(self.xcols, ())",
         [("_Frame.lanes", 3)]),
        ("from polab.order import _PairLanes\nsetattr(polab.order._PairLanes, 'pivot_close', None)\n"
         "lanes = frame.lanes", []),
    ],
    "first_use_state_is_a_cached_property": [
        ("if self._frame is None: pass", [("", 1)]),
        ("x = pol._rows is not None", [("", 1)]),
        ("ok = fr._saturation is not None and fr._saturation[0] == rows", [("", 1)]),
        ("ok = None is ctx._kernel", [("", 1)]),
        ("a = report.level is None\nb = w is None\nc = self._x == 0", []),
    ],
    "instance_dicts_stay_in_cached_property": [
        ("tables = pol.__dict__.setdefault('_t', [None] * 4)\nif tables[n] is None: pass", [("", 1)]),
        ("class C:\n    def f(self):\n        x = self.__dict__.get('_x')\n        return x is None",
         [("C.f", 3)]),
        ("__slots__ = ('__dict__',)\nname = '__dict__'", []),
    ],
    "process_caches_are_pinned": [
        ("import functools\n@functools.lru_cache(maxsize=8)\ndef f(x): pass", [("f", 2)]),
        ("import functools as ft\ndef g(f):\n    return ft.cache(f)", [("g", 3)]),
        ("from functools import lru_cache as memo\n@memo(maxsize=None)\ndef f(x): pass",
         [("f", 2)]),
        ("import functools\n@functools.wraps(g)\ndef f(x): pass\ncache = self.cache = {}", []),
    ],
    "label_forms_are_views": [
        ("self.rel = frozenset(pairs)", [("", 1)]),
        ("m.assignment = {}", [("", 1)]),
        ("class C:\n    def f(self):\n        n, self.assignment = 0, {}", [("C.f", 3)]),
        ("pol.rel |= {(x, y)}", [("", 1)]),
        ("rel = frozenset()\nlabels = m.assignment\npairs = pol.rel | rel\nu.rel(a, b)", []),
    ],
    "the_writer_builds_no_label_view": [
        ("text = ' '.join(sorted(pol.rel))", [("", 1)]),
        ("def emit(m, p):\n    return m.assignment[p]", [("emit", 2)]),
        ("ok = pre.rel(a, b)", [("", 1)]),
        ("from .order import _mask_iter", [("", 1)]),
        ("rel = pol._mask\ntext = got.get('rel', '')\nline = 'rel ' + text", []),
    ],
    "fuzz_checks_draw_nothing": [
        ("def _law_x(pol):\n    rng.random()", [("_law_x", 2)]),
        ("def _draw_x(rng, size):\n    return random.Random(0)", [("_draw_x", 2)]),
        ("import random\ndef _law_x(ctx):\n    return ctx.rng, 'random'", []),
    ],
}


def _probe(name):
    for text, want, *file in PROBES[name]:
        assert SCANS[name](scan.source(*file or ["polab/probe.py"], text + "\n")) == want, text


for _row in RULES:
    globals()["test_" + _row.name] = partial(_check, _row)
    globals()[_row.probe] = partial(_probe, _row.name)
test_the_unread_import_scan_sees_every_form = partial(_probe, "every_import_is_read")


def test_a_packed_relation_is_pinned_by_its_site():
    """`packed_relations_are_pinned` counts a call at a pinned site toward
    it and names one beside it as a stray."""
    row = next(row for row in RULES if row.name == "packed_relations_are_pinned")
    src = scan.source("polab/polarity.py", (
        "class _Frame:\n"
        "    def relation(self, m):\n"
        "        return UnionPreorder._of_packed(self.carrier, self.index, m, False)\n"
        "    def closed_relation(self, m):\n"
        "        return UnionPreorder._of_packed(self.carrier, self.index, m, True)\n"
    ))
    sites = [_pinned(row, src, scope) for scope, _ in _sites(row, src)]
    assert sites == [("polab/polarity.py", "_Frame.relation"), None]


def test_every_scan_has_a_form_it_flags_and_one_it_passes():
    """A rule cannot land without its probes."""
    assert PROBES.keys() == SCANS.keys()
    for name, forms in PROBES.items():
        assert [] in [want for _, want, *_ in forms] and any(want for _, want, *_ in forms), name


def _literal(path, name):
    """The literal assigned to the module-level `name` of a file, read
    without importing the file."""
    for node in scan.read(path, ROOT).tree.body:
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


# -- every definition reached -----------------------------------------------

# Definitions of the package that only the tests reach, as `reach.unreached`
# labels them, each with why it stays in `src/`: at most three.
TEST_ONLY = {}


def test_every_definition_is_reached():
    """Each function, class, method and module constant of the package
    is reached from the command line (the fuzzer included) or the
    benchmark; a route that only the tests use belongs in the tests, or
    in `oracles.py` when it is a naive reference."""
    assert len(TEST_ONLY) <= 3
    bench = [src for src in scan.repository() if src.name.startswith("bench/")]
    unreached = reach.unreached(scan.package(), bench)
    found = [label for label in unreached if label not in TEST_ONLY]
    assert not found, "only tests reach " + ", ".join(found)


def test_the_reach_scan_sees_every_form():
    cli = scan.source(
        "polab/cli.py",
        "from .m import aliased as other\n"
        "from .m import imported_only\n"
        "def main():\n"
        "    called()\n"
        "    other()\n"
        "    return C().used()\n"
        "def orphan():\n"
        "    pass\n"
    )
    m = scan.source(
        "polab/m.py",
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
    oracles = scan.source("polab/oracles.py", "def naive():\n    only_oracles()\n")
    probe = scan.source(
        "bench/probe.py",
        "import polab.m as m\n"
        "from polab.m import by_import\n"
        "SPANS = (('m', 'by_string'), ('m', 'not an identifier'))\n"
        "m.by_attribute()\n"
        "# orphan\n"
    )
    assert reach.unreached([cli, m, oracles], [probe]) == [
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


def test_every_exemption_names_a_definition():
    """Each label of `reach.EXEMPT` is a function or method of the package
    today, so an exemption left behind by a deleted or renamed definition
    fails here and not only in the opt-in trace run."""
    stale = sorted(set(reach.EXEMPT) - set(reach.definitions(scan.PACKAGE)))
    assert len(reach.EXEMPT) > 10
    assert not stale, "reach.EXEMPT names no definition: " + ", ".join(stale)


def test_opcode_counts_repeat():
    """The opt-in script `tests/opcodes.py` counts the same opcodes, in
    total and per item, and the same calls, in two fresh processes, on
    pools of a tenth of a second of each workload."""
    script = "import opcodes, sys; sys.exit(opcodes.main(['--seconds', '0.1']))"
    first, second = (run_optimized(script, optimize=False) for _ in range(2))
    assert first.returncode == 0, first.stderr
    line = r"^(\w+)  items \d+  opcodes \d+  calls \d+  per item p50 \d+  p90 \d+$"
    assert re.findall(line, first.stdout, re.M) == [
        "grade", "complete", "transfer",
    ]
    assert second.stdout == first.stdout


def test_readme_documents_every_keyword():
    """Each block kind, reference, list statement and flag of the
    `.pol` grammar is named, in backticks, in the README's format
    section."""
    from polab.docformat import _GRAMMAR

    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Document format\n") + 1 :].partition("\n## ")[0]
    words = set(_GRAMMAR)
    for spec in _GRAMMAR.values():
        words.update(spec.refs, spec.lists, spec.flags)
    missing = sorted(w for w in words if "`%s`" % w not in section)
    assert len(words) > 15
    assert not missing, "README Document format lacks " + ", ".join(missing)


# A README name: a backticked span that is a dotted name, its call
# arguments aside.  Fenced blocks are not read, and a name ending in a
# file suffix is a file.
README_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?", re.S)
FENCED = re.compile(r"```.*?```", re.S)
FILE_SUFFIXES = ("py", "pol", "md", "json")


def _roots():
    """The first parts a README name is checked from: `polab`, each module
    of the package and each class a module defines."""
    import polab

    roots = {"polab": polab}
    for info in pkgutil.iter_modules(polab.__path__):
        roots[info.name] = importlib.import_module("polab." + info.name)
    for module in list(roots.values()):
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                roots.setdefault(name, obj)
    return roots


def _readme_names(text):
    """Each README name of `text` whose first part is a root, with whether
    attribute lookup from that root resolves it; a name that starts with
    anything else, such as a variable, is not checked."""
    roots, out, missing = _roots(), [], object()
    for span in re.findall(r"`([^`]+)`", FENCED.sub("", text)):
        match = README_NAME.fullmatch(span)
        if match is None:
            continue
        first, *parts = match[1].split(".")
        if first not in roots or parts[-1] in FILE_SUFFIXES:
            continue
        obj = roots[first]
        for part in parts:
            obj = getattr(obj, part, missing)
        out.append((match[1], obj is not missing))
    return out


def test_readme_names_resolve():
    """Every module, class and attribute the README names by a dotted
    name exists: renaming or deleting one fails here."""
    names = _readme_names((ROOT / "README.md").read_text())
    stale = sorted(name for name, ok in names if not ok)
    assert len(names) > 20
    assert not stale, "README names missing attributes: " + ", ".join(stale)


def test_the_readme_name_scan_sees_every_form():
    text = (
        "`order._closer`, `order._close`, `polab.order.Poset.nothing` and\n"
        "`MonotoneMap._of_idx(source,\n  target, idx)`; `Poset.meet_index`/`join_index`;\n"
        "`order.py`, `tests/scan.py`, `pol.ex.map`, `ctx.outer(rel)`, `(m >> k) * row`\n"
        "```\n`order._gone`\n```\n"
    )
    assert _readme_names(text) == [
        ("order._closer", False),
        ("order._close", True),
        ("polab.order.Poset.nothing", False),
        ("MonotoneMap._of_idx", True),
        ("Poset.meet_index", True),
    ]
