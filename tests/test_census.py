"""Every polarity of a small scope, checked against the paper's theorems.

The seeded fuzzer samples; this census enumerates.  Its scope (k = 2):
every labelled base poset of one or two elements, every order embedding
of it into a labelled poset of up to two elements on each side, and
every relation between the two sides.  Labelled means no two are
identified up to isomorphism, so the census is a plain product.
"""

from collections import Counter
from itertools import permutations, product

from polab.cli import _LAWS
from polab.delta1 import unit
from polab.errors import AntisymmetryViolation
from polab.oracles import naive_coherence_level
from polab.order import Extension, MonotoneMap, Poset
from polab.polarity import (
    CANONICAL_BUILDERS,
    ExtensionPolarity,
    coherence_level,
    enumerate_n_preorders,
    is_galois,
    is_n_preorder,
)

SCOPE = 2

# The fuzzer's checks that take a Galois polarity.
GALOIS_LAWS = ("completion", "concepts", "roundtrip", "slice")


def _subsets(items):
    for keep in product((False, True), repeat=len(items)):
        yield [item for item, k in zip(items, keep) if k]


def labelled_posets(ids):
    """Every partial order on the ids, each once."""
    pairs = [(a, b) for a in ids for b in ids if a != b]
    seen = {}
    for chosen in _subsets(pairs):
        try:
            poset = Poset.from_pairs(ids, chosen)
        except AntisymmetryViolation:
            continue
        seen.setdefault(poset.rows, poset)
    return list(seen.values())


def embeddings(base, prefix):
    """Every order embedding of `base` into a labelled poset of up to
    `SCOPE` elements named `prefix` and a number."""
    for size in range(len(base), SCOPE + 1):
        for side in labelled_posets(["%s%d" % (prefix, i) for i in range(size)]):
            for image in permutations(side.elements, len(base)):
                f = dict(zip(base.elements, image))
                if all(
                    base.leq(p, q) == side.leq(f[p], f[q])
                    for p in base.elements
                    for q in base.elements
                ):
                    yield Extension(MonotoneMap(base, side, f))


def census():
    for size in range(1, SCOPE + 1):
        for base in labelled_posets("ab"[:size]):
            for ex, ey in product(list(embeddings(base, "x")), list(embeddings(base, "y"))):
                pairs = list(product(ex.target.elements, ey.target.elements))
                for rel in _subsets(pairs):
                    yield ExtensionPolarity(base, ex, ey, rel)


def test_every_small_polarity_keeps_the_theorems():
    """On every polarity of the scope: the grade is the oracle's; an
    n-preorder exists exactly at grades n and above, and the canonical
    one is the least of them; the fuzzer's `coherence` check holds, and
    on a Galois polarity so do its Galois checks, whose one finding (a
    generated relation strictly above the saturation) comes exactly
    where the unit is not an isomorphism."""
    levels, galois, findings = Counter(), 0, 0
    for pol in census():
        level = coherence_level(pol)
        assert level == naive_coherence_level(pol)
        levels[level] += 1
        for n in range(4):
            first = list(enumerate_n_preorders(pol, n, cap=1))
            assert bool(first) == (level is not None and level >= n)
            if not first:
                continue
            least = CANONICAL_BUILDERS[n](pol).closed()
            assert is_n_preorder(pol, least, n).ok and first == [least]
            for u in enumerate_n_preorders(pol, n):
                assert all(r & ~s == 0 for r, s in zip(least.rows, u.rows))
        assert _LAWS["coherence"][1](pol) is None
        if is_galois(pol):
            galois += 1
            found = [msg for law in GALOIS_LAWS if (msg := _LAWS[law][1](pol)) is not None]
            assert bool(found) != unit(pol).is_isomorphism()
            findings += len(found)
    assert levels == {None: 360, 0: 269, 1: 108, 2: 28, 3: 53}
    assert galois == 21 and findings == 4
