import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import strategies as st

import polab
from polab.extend import ExtensionContext
from polab.morphisms import PolarityMorphism
from polab.order import Extension, MonotoneMap, Poset, _mask_iter
from polab.polarity import ExtensionPolarity, r_l
from polab.randgen import (
    collapse_target,
    random_extension_polarity,
    random_galois_polarity,
    random_poset,
)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def seeded_posets(max_size=5):
    """Small random posets driven by a drawn seed, so hypothesis can
    shrink over the generator input."""
    return st.builds(
        lambda seed, size: random_poset(random.Random(seed), size),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=max_size),
    )


def seeded_polarities(max_base=3):
    return st.builds(
        lambda seed, size: random_extension_polarity(random.Random(seed), size),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=max_base),
    )


def seeded_galois(max_base=4):
    return st.builds(
        lambda seed, size: random_galois_polarity(random.Random(seed), size),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=max_base),
    )


def run_optimized(script, optimize=True, **env):
    """Run `script` in a fresh `python -O` (plain `python` when not
    `optimize`), with the package and this directory importable and
    `env` added to the environment; the finished process, its output
    captured as text."""
    path = os.pathsep.join(map(str, (Path(polab.__file__).parents[1], Path(__file__).parent)))
    return subprocess.run(
        [sys.executable] + (["-O"] if optimize else []) + ["-c", script],
        env=dict(os.environ, PYTHONPATH=path, **env),
        capture_output=True,
        text=True,
        timeout=60,
    )


def chain(ids):
    """The chain ids[0] < ids[1] < ... through the checked constructor."""
    ids = tuple(ids)
    n = len(ids)
    return Poset(ids, [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)])


def mask_of(poset, ids):
    """The ids of a poset as a mask over its elements."""
    return sum(1 << i for i in {poset.index[e] for e in ids})


def identity_polarity(base):
    """The slice polarity whose sides are both the base itself."""
    e = Extension.identity(base)
    return ExtensionPolarity(base, e, e, r_l(e, e))


@dataclass
class NamedRelationSets:
    """The auxiliary pair-sets the canonical preorders are built from."""

    z_x: frozenset
    z_y: frozenset
    z_yx: frozenset
    z_yx_alt: frozenset
    z_s: frozenset
    z_t: frozenset


def _pairs(left, right, block):
    return frozenset(
        (left[i], right[j]) for i, row in enumerate(block) for j in _mask_iter(row)
    )


def named_relation_sets(pol):
    """The pair-sets as the polarity's frame computes them, block by
    block: the three blocks of the saturation `r_hat_m` besides the
    relation, and the pair masks `z_s` and `z_t`;
    `oracles.oracle_canonical_relations` builds them pair by pair."""
    fr, sat = pol._frame, pol._saturation.rows
    xs, ys, nx = fr.xs, fr.ys, len(fr.xs)
    left = (1 << nx) - 1
    return NamedRelationSets(
        z_x=_pairs(xs, xs, [r & left for r in sat[:nx]]),
        z_y=_pairs(ys, ys, [r >> nx for r in sat[nx:]]),
        z_yx=_pairs(ys, xs, [r & left for r in sat[nx:]]),
        z_yx_alt=_pairs(ys, xs, fr.z_yx_alt()),
        z_s=_pairs(ys, xs, fr.rows(fr.z_s)[1]),
        z_t=_pairs(ys, xs, fr.rows(fr.z_t)[1]),
    )


def random_monotone(rng, s, t):
    """A random monotone map s -> t, or None when a choice runs out:
    each element, in a linear extension, goes to a random upper bound of
    the images already chosen below it."""
    img = {}
    down = lambda a: s.elements_of(s.cols[s.index[a]])
    for a in sorted(s.elements, key=lambda a: len(down(a))):
        below = [img[e] for e in down(a) if e != a]
        bounds = [v for v in t.elements if all(t.leq(w, v) for w in below)]
        if not bounds:
            return None
        img[a] = rng.choice(bounds)
    return MonotoneMap(s, t, img)


def lossy_side():
    """A 16-element poset, the bottom 0 below 15 atoms, and the same
    poset with one more element z between 0 and the atoms a and b: the
    inclusion loses the meet of a and b."""
    atoms = "abcdefghijklmno"
    p = Poset.from_pairs("0" + atoms, [("0", a) for a in atoms])
    t = Poset.from_pairs(
        "0z" + atoms,
        [("0", a) for a in atoms] + [("0", "z"), ("z", "a"), ("z", "b")],
    )
    return p, t


def point_into_chain():
    """The one-point polarity sent to the bottom of the chain a < b,
    whose identity polarity has the one absent pair (b, a)."""
    pt, tgt = collapse_target(), identity_polarity(chain("ab"))
    to_a = lambda s, t: MonotoneMap(s, t, {"o": "a"})
    return PolarityMorphism(
        pt, tgt, to_a(pt.x, tgt.x), to_a(pt.base, tgt.base), to_a(pt.y, tgt.y)
    )


def dual_extension(e):
    """The same embedding between the dual posets."""
    return Extension(MonotoneMap(e.base.dual(), e.target.dual(), e.map.assignment))


def dual_polarity(pol):
    """Both orders reversed, the sides swapped, the relation transposed."""
    base = pol.base.dual()
    ex = Extension(MonotoneMap(base, pol.y.dual(), pol.ey.map.assignment))
    ey = Extension(MonotoneMap(base, pol.x.dual(), pol.ex.map.assignment))
    return ExtensionPolarity(base, ex, ey, {(b, a) for a, b in pol.rel})


def dual_context(ctx):
    """The dual inner polarity, its new left side extended by the dual of
    `iy` and its new right side by the dual of `ix`."""
    inner = dual_polarity(ctx.inner)
    return ExtensionContext(inner, dual_extension(ctx.iy), dual_extension(ctx.ix))


# A script prelude for sabotage under `python -O`: `refused` runs `run`
# with the call-th map the package derives from an index tuple
# (`MonotoneMap._of_idx`) given `wrong` of its tuple instead, and returns
# the error raised, with its law or clause and witness, or "accepted".
INDEX_SABOTAGE = """
from polab.errors import PolabError
from polab.order import MonotoneMap

def refused(run, call, wrong):
    derive, count = MonotoneMap._of_idx.__func__, [0]

    def sabotaged(cls, source, target, idx):
        count[0] += 1
        return derive(cls, source, target, wrong(list(idx)) if count[0] == call else idx)

    MonotoneMap._of_idx = classmethod(sabotaged)
    try:
        run()
    except PolabError as err:
        kind = getattr(err, "law", getattr(err, "clause", None))
        return "%s %s %s" % (type(err).__name__, kind, err.witness)
    finally:
        MonotoneMap._of_idx = classmethod(derive)
    return "accepted"
"""
