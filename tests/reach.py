"""Which definitions of `polab` the command line, the fuzzer and the
benchmark reach, matched by name and measured by a trace.

`unreached` matches by name: tier-1's `test_every_definition_is_reached`
calls it on the package and the benchmark.  A name match can be fooled
by a shared name, so the script measures reach by trace as well:

    PYTHONPATH=src python3 tests/reach.py

A `sys.setprofile` hook starts before the package is imported and
records every code object entered while the routes in `ROUTES` run: the
`polab` subcommands on the shipped fixtures, the fuzzer, the parse
errors of `tests/test_docformat.py`, and a short pool of each benchmark
workload through its `run`, `check` and `summary`.  The script prints
each function and method under `src/polab/`, `oracles.py` aside, that no
route entered and `EXEMPT` does not explain, then each stale exemption
(a name now entered, or gone), and exits 1 when either list is
nonempty.  It is opt-in: pytest does not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import random
import re
import sys
from pathlib import Path

import scan
from scan import PACKAGE, ROOT

# Definitions no route enters, each with why it stays in `src/`.
EXEMPT = {
    "order.Poset.meet_index": "bench/tracer.py counts its calls; goes with ROADMAP item 1(a)",
    "order.Poset.join_index": "bench/tracer.py counts its calls; goes with ROADMAP item 1(a)",
    "polarity.intermediate_structure": "bench/tracer.py spans it; goes with ROADMAP item 1(a)",
    "order.transitive_close": "bench/tracer.py counts its calls; goes with ROADMAP item 1(a)",
    "errors.MorphismInvalid.__init__": "builds the error of a morphism clause that fails",
    "errors.LawViolation.__init__": "builds the error of a certificate that fails",
    "order.MonotoneMap.image": "the witness of psi_of's failed `onto` certificate",
    "order.Quotient.classes": "the witness of Quotient.descend's failed `well-defined`",
    "order.UnionPreorder.transitivity_witness": "the witness of a Quotient of a non-preorder",
    "order.Poset.__contains__": "Python calls it for `in`",
    "order.Poset.__repr__": "Python calls it for repr()",
    "order.UnionPreorder.__hash__": "Python calls it for hash()",
    "order.UnionPreorder.__len__": "Python calls it for len()",
    "order.UnionPreorder.__repr__": "Python calls it for repr()",
    "polarity.NPreorderVerdict.__bool__": "without it a failed verdict is truthy",
    "polarity.EnumerationResult.__eq__": "Python calls it for ==",
    "polarity.EnumerationResult.__repr__": "Python calls it for repr()",
    "docformat.Document.__repr__": "Python calls it for repr()",
    "fixtures.CheckResult.__bool__": "without it a failed check is truthy",
}


def definitions(package):
    """Label -> (file, first line) for each function and method of
    `package`, nested ones included, `oracles.py` aside.  The first line
    is that of the code object: the first decorator's, if any."""
    return {
        ".".join(filter(None, (scan.module(src), scope, node.name))): (
            str((package.parent / src.name).resolve()),
            min([d.lineno for d in node.decorator_list] + [line]),
        )
        for src in scan.package(package)
        for scope, line, node in src.nodes
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not src.name.endswith("/oracles.py")
    }


def trace(run):
    """Run `run()` under a profile hook; the code objects it entered, as
    (resolved file, first line)."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(before)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}


def unexplained(defs, entered, exempt):
    """The labels of `defs` not entered and not in `exempt`, and the
    exemptions that are stale: entered, or not a definition at all."""
    missed = sorted(k for k, at in defs.items() if at not in entered and k not in exempt)
    stale = sorted(k for k in exempt if k not in defs or defs[k] in entered)
    return missed, stale


# -- reach by name ----------------------------------------------------------

_IDENT = re.compile(r"[A-Za-z_]\w*\Z")


def _mentions(node):
    """The identifiers code refers to: bare names, attribute names,
    imported names, and string constants that are identifiers, since the
    benchmark's tracer names what it wraps in strings."""
    out = set()
    for n in ast.walk(node):
        name = scan.name_of(n)
        if name:
            out.add(name.rpartition(".")[2])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and _IDENT.match(n.value):
            out.add(n.value)
    return out


def _declared(src):
    """(name, label, mentions) per function, class, method and assigned
    name at the top of a module, and under the name "" the other code
    run on import.  A class mentions what its bases, decorators and body
    outside its methods do, dunder methods included, since they run
    unnamed.  An import `x as y` gives y as a name that mentions x; other
    top-level imports mention nothing, so a name only imported is not
    reached."""
    module = scan.module(src)
    for node in src.tree.body:
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
    for alias in src.imports:
        if alias.asname:
            yield alias.asname, None, {alias.name.rpartition(".")[2]}


def unreached(package, roots):
    """The labels of the definitions of the package files `package`,
    `oracles.py` aside, that nothing reaches from `cli.main` or from the
    files `roots`.  The scan goes by name: a definition is reached once a
    reached one, or a root, mentions its name."""
    defs = {}
    for src in package:
        if not src.name.endswith("/oracles.py"):
            for name, label, mentions in _declared(src):
                defs.setdefault(name, []).append((label, mentions))
    todo = {"main", ""}
    for src in roots:
        todo |= _mentions(src.tree)
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


# -- the routes --------------------------------------------------------------


def _polab(*argv):
    """One `polab` command in this process, its output discarded."""
    from polab import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main([str(a) for a in argv])


def route_cli():
    """Every subcommand on every shipped fixture; `fixtures` once."""
    from polab import fixtures

    _polab("fixtures")
    for fx in fixtures.CATALOGUE:
        path = PACKAGE / "fixtures" / (fx.name + ".pol")
        for fmt in ("text", "tsv"):
            _polab("check", path, "--format", fmt)
        for kind in ("r0", "rm", "rg", "rl"):
            for extra in ((), ("--quotient",), ("--dot",)):
                _polab("preorder", path, "--kind", kind, *extra)
        for command in ("complete", "decompose", "concept"):
            _polab(command, path)
        for decl in fixtures.load(fx.name).morphisms.values():
            _polab("morphism", path, "--from", decl.source, "--to", decl.target)


def route_fuzz():
    for seed in range(3):
        _polab("fuzz", "--seed", seed, "--size", 5, "--iters", 400)


def _error_documents():
    """The documents of `tests/test_docformat.py`'s error table, the
    prelude prefixed, read from its source: the table names pytest's
    exception classes, and this script imports no test module."""
    tree = scan.read(ROOT / "tests" / "test_docformat.py", ROOT).tree
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            found[node.targets[0].id] = node.value
    prelude = ast.literal_eval(found["PRELUDE"])
    return [prelude + ast.literal_eval(case.elts[1]) for case in found["ERRORS"].elts]


def route_parse_errors():
    from polab.docformat import parse
    from polab.errors import PolabError

    for text in _error_documents():
        try:
            parse(text)
        except PolabError:
            pass


def route_bench(seconds=4):
    """A `seconds` pool of each workload at seed 0, each item through
    `run`, `check` and `summary` as `bench/run.py` takes it."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from polab.errors import CarrierTooLarge

    for w in workloads.WORKLOADS.values():
        for k, inp in enumerate(w.pool(random.Random(0), seconds)):
            try:
                out = w.run(inp)
            except CarrierTooLarge:
                continue
            w.check(k, inp, out)
            w.summary(out)


ROUTES = (route_cli, route_fuzz, route_parse_errors, route_bench)


def run_routes():
    for route in ROUTES:
        route()


def main():
    entered = trace(run_routes)
    import polab

    if Path(polab.__file__).resolve().parent != PACKAGE:
        sys.exit("reach: imported polab from %s, not %s" % (polab.__file__, PACKAGE))
    defs = definitions(PACKAGE)
    missed, stale = unexplained(defs, entered, EXEMPT)
    reached = sum(at in entered for at in defs.values())
    print("entered %d of %d definitions; %d exempt" % (reached, len(defs), len(EXEMPT)))
    for label in missed:
        print("never entered: " + label)
    for label in stale:
        print("stale exemption: " + label)
    return 1 if missed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
