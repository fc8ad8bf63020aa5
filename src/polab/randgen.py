"""Seeded random generators for posets, extensions and polarities.

Every generator takes a `random.Random` so test runs are repeatable.
Meet and join extensions are drawn as sub-posets of the cut completion
that contain the image: any such sub-poset keeps each of its elements
expressible from the image on the right side.  Only the random choices
are made here: the intersections of the base's principal down-sets (of
its up-sets for a join extension) are kept or dropped in increasing
order, and the kept ones are handed with their names to
`order._cut_extension`, the builder of `macneille`, which orders them,
turns a join extension upside down and certifies the embedding.  The
full completion is never built.  Repeated draws share the closed sets of
the cuts and the certified extension, each in a 256-entry LRU cache
(`_closed_cuts`, `_cut_draw`).  The keep-or-drop loop stays outside
both, so a seed makes the same `rng.random()` calls in the same order,
and draws equal objects, as with no cache.  An equal input gets the
same object back, which is safe: no code changes the value of a
`Poset`, `MonotoneMap` or `Extension` after construction.  `macneille` is not
cached, so a timed completion never reuses another item's work.
"""

from __future__ import annotations

import functools

from .errors import LawViolation
from .order import (
    Extension,
    MonotoneMap,
    Poset,
    _closed_sets,
    _cut_extension,
)
from .polarity import ExtensionPolarity, _Frame, is_galois
from .extend import ExtensionContext


def random_poset(rng, size, theta=0.3):
    """Random poset on `size` elements: a random DAG on an index order,
    whose pairs `Poset.from_pairs` closes once."""
    names = ["e%d" % i for i in range(size)]
    pairs = [
        (names[i], names[j])
        for i in range(size)
        for j in range(i + 1, size)
        if rng.random() < theta
    ]
    return Poset.from_pairs(names, pairs)


@functools.lru_cache(maxsize=256)
def _closed_cuts(cuts):
    """The cuts as a set, and the closed sets they generate in order."""
    return frozenset(cuts), tuple(_closed_sets((1 << len(cuts)) - 1, cuts))


@functools.lru_cache(maxsize=256)
def _cut_draw(base, kept, prefix, flip):
    return _cut_extension(base, kept, ["%s%d" % (prefix, k) for k in range(len(kept))], flip)


def _cut_subposet(base, keep_theta, rng, prefix, flip=False):
    """A random sub-poset of the cut completion containing the image;
    with `flip`, of the completion of the dual, turned upside down."""
    image, closed = _closed_cuts(base.rows if flip else base.cols)
    kept = tuple(c for c in closed if c in image or rng.random() < keep_theta)
    return _cut_draw(base, kept, prefix, flip)


def random_meet_extension(rng, base, keep_theta=0.4, prefix="m"):
    return _cut_subposet(base, keep_theta, rng, prefix)


def random_join_extension(rng, base, keep_theta=0.4, prefix="j"):
    return _cut_subposet(base, keep_theta, rng, prefix, flip=True)


def random_embedding(rng, base, keep_theta=0.4, junk=0, prefix="z"):
    """A random order embedding: a cut sub-poset of either orientation,
    possibly with a small poset glued in as an isolated component.  The
    glued target keeps the cut sub-poset's indices first, so the map keeps
    its index tuple (`MonotoneMap._of_idx`); `Extension` checks that it
    still embeds."""
    if rng.random() < 0.5:
        ext = random_meet_extension(rng, base, keep_theta, prefix)
    else:
        ext = random_join_extension(rng, base, keep_theta, prefix)
    if junk <= 0:
        return ext
    extra = random_poset(rng, junk).relabel(lambda e: "%siso_%s" % (prefix, e))
    t = ext.target
    glued = Poset(t.elements + extra.elements, t.rows + tuple(r << len(t) for r in extra.rows))
    return Extension(MonotoneMap._of_idx(base, glued, ext.map.idx))


def random_extension_polarity(rng, base_size=3, keep_theta=0.4, junk_theta=0.3):
    """An arbitrary polarity over extensions: random relation, sides that
    may carry isolated components, no coherence promised; the relation is
    drawn as a pair mask on the polarity's one frame."""
    base = random_poset(rng, base_size)
    jx = rng.randrange(3) if rng.random() < junk_theta else 0
    jy = rng.randrange(3) if rng.random() < junk_theta else 0
    ex = random_embedding(rng, base, keep_theta, junk=jx, prefix="x")
    ey = random_embedding(rng, base, keep_theta, junk=jy, prefix="y")
    fr = _Frame(base, ex, ey)
    m = sum(1 << p for p in range(len(fr.xs) * len(fr.ys)) if rng.random() < 0.3)
    if rng.random() < 0.5:
        m |= fr.slice_mask()
    return ExtensionPolarity._of_mask(fr, m)


def random_galois_polarity(rng, base_size=3, keep_theta=0.4):
    """A polarity that is Galois by construction: a meet extension on the
    left, a join extension on the right, and the slice relation."""
    base = random_poset(rng, base_size)
    ex = random_meet_extension(rng, base, keep_theta, prefix="x")
    ey = random_join_extension(rng, base, keep_theta, prefix="y")
    fr = _Frame(base, ex, ey)
    pol = ExtensionPolarity._of_mask(fr, fr.slice_mask())
    if not is_galois(pol):
        raise LawViolation(
            "galois", "slice polarity over meet/join extensions must be Galois", pol
        )
    return pol


@functools.cache
def collapse_target():
    """The one-point slice polarity, the terminal object for morphisms,
    built once, so its kept structures are built once."""
    point = Poset.antichain(("o",))
    e = Extension.identity(point)
    return ExtensionPolarity(point, e, e, frozenset({("o", "o")}))


def collapse_morphism(pol, target=None):
    """Everything onto the one-point polarity."""
    from .morphisms import PolarityMorphism

    if target is None:
        target = collapse_target()
    const = lambda poset: MonotoneMap(poset, target.base, dict.fromkeys(poset.elements, "o"))
    return PolarityMorphism(pol, target, const(pol.x), const(pol.base), const(pol.y))


def morphism_corpus(rng, count=60, base_size=4):
    """At least `count` validated morphisms between Galois polarities:
    identities, collapses, completion units and their composites."""
    from .delta1 import unit
    from .morphisms import PolarityMorphism, compose

    pt = collapse_target()
    out = [PolarityMorphism.identity(pt), collapse_morphism(pt, pt)]
    while len(out) < count:
        pol = random_galois_polarity(rng, rng.randint(1, base_size))
        ident = PolarityMorphism.identity(pol)
        fold = collapse_morphism(pol, pt)
        out += [ident, fold, compose(fold, ident)]
        eta = unit(pol)
        out += [eta, compose(collapse_morphism(eta.target, pt), eta)]
    return out


def random_context(rng, base_size=3, keep_theta=0.5, galois=False):
    """An extension context: an inner polarity plus one further extension
    of each side (meet-flavoured on the left, join-flavoured on the
    right so the Galois transfer clause stays exercisable)."""
    if galois:
        inner = random_galois_polarity(rng, base_size, keep_theta)
    else:
        inner = random_extension_polarity(rng, base_size, keep_theta, junk_theta=0.0)
    ix = random_meet_extension(rng, inner.x, keep_theta, prefix="xx")
    iy = random_join_extension(rng, inner.y, keep_theta, prefix="yy")
    return ExtensionContext(inner, ix, iy)


def random_side_context(rng, inner):
    """An extension context over `inner` with a `random_embedding` on
    each side, each with up to two isolated elements glued on."""
    ix = random_embedding(rng, inner.x, junk=rng.randint(0, 2), prefix="xx")
    iy = random_embedding(rng, inner.y, junk=rng.randint(0, 2), prefix="yy")
    return ExtensionContext(inner, ix, iy)
