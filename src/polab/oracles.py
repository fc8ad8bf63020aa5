"""Ground-truth oracles: literal quantifier scans and naive enumeration.

Everything here is deliberately slow and obvious, and stands apart from
the routes it checks: the fast routes of `polab.order`, `polab.polarity`,
`polab.concepts`, `polab.morphisms`, `polab.extend` and `polab.delta1`
are tested against these, no other module of the package imports this
one, and this one imports only public data types, constructors and
errors from the package.  Its literal base:

- `leq(P, a, b)`, the order read off a poset's `rows`;
- `glb` and `lub`, the greatest lower and least upper bound of a subset
  by the loop over elements `literal_bound`;
- `naive_transitive_close`, closure by Warshall's pivots;
- `tagged_carrier`, the left elements, then the right ones, tagged.

One reference per definition of the paper, and the fast route it checks:

- C1-C6: `naive_conditions_c1_to_c6`; `check_coherence` (`_Frame.c1`..`c6`).
- C7, C8: `naive_c7`, `naive_c8`, over every base subset (gated at 10);
  `coherence_level` (`mask_level`).  `oracle_report_conditions` reads them
  through the realizable meets and joins (`realizable_meet`,
  `realizable_join`) in the witness order of `_Frame.c7`, `c8`, `meets`
  and `joins`.
- E1, E2 and S1, S2: `naive_e1_e2`, `naive_s1_s2`; the report's
  separation rows and `_Frame.slices`.
- The grades: `naive_coherence_level`; `coherence_level`, `mask_level`.
- P1-P5, commutation and reflection: `oracle_is_n_preorder`;
  `is_n_preorder`.  `_forced` and `_forbidden` per grade:
  `_grade_masks`; `oracle_enumerate_preorders`: `enumerate_n_preorders`;
  `oracle_rigidity_failures`: `_rigidity_failures`.  P4 and P5 on a
  preorder's quotient: `naive_p4`, `naive_p5`; `unique_3preorder`.
- z_s, z_t: `naive_z_s`, `naive_z_t`; `_Frame.z_s`, `_Frame.z_t`.
- The canonical relations and their pair sets:
  `oracle_canonical_relations`; `r_zero`, `r_hat_m`, `r_hat_g` and
  `_Frame.z_yx_alt`.
- The completion laws: `oracle_bounds_failure` (`_bounds_failure`),
  `oracle_is_cut_stable` (`is_cut_stable`), `oracle_complete_hom_failure`
  (`_complete_hom_failure`), `oracle_complete_homs` (`delta1.mediate`),
  `oracle_extensions_isomorphic` and `oracle_polarity_isos_over_base`
  (the uniqueness certificates of `delta1`).
"""

from __future__ import annotations

import itertools
import random

from .errors import (
    AntisymmetryViolation,
    CarrierMismatch,
    CarrierTooLarge,
    NotPreorder,
)
from .extend import AdjunctionReport
from .morphisms import PolarityMorphism
from .order import MonotoneMap, UnionPreorder, tag_x, tag_y
from .polarity import NPreorderVerdict

# The adjunction law is checked on every pair of relations up to PAIR_BUDGET
# pairs, and on LAW_SAMPLES pairs drawn with LAW_SEED beyond it.
PAIR_BUDGET = 1 << 20
LAW_SAMPLES = 500
LAW_SEED = 0


# -- the literal base: order, bounds and closure ------------------------------


def leq(P, a, b):
    """a <= b in the poset P, read off its rows."""
    return P.rows[P.index[a]] >> P.index[b] & 1 == 1


def literal_bound(vecs, mask):
    """The greatest lower bound of the indices in `mask`, or None, by the
    literal loop over x <= y read as bit x of vecs[y]: for a poset's
    `cols` its meet, for its `rows` its join.  The empty mask asks for a
    top (a bottom)."""
    n = len(vecs)
    members = [m for m in range(n) if mask >> m & 1]
    lower = [x for x in range(n) if all(vecs[m] >> x & 1 for m in members)]
    return next((g for g in lower if all(vecs[g] >> x & 1 for x in lower)), None)


def _bound(P, vecs, subset):
    g = literal_bound(vecs, sum({1 << P.index[e] for e in subset}))
    return None if g is None else P.elements[g]


def glb(P, subset):
    """The greatest lower bound of `subset` in the poset P, or None."""
    return _bound(P, P.cols, subset)


def lub(P, subset):
    """The least upper bound of `subset` in the poset P, or None."""
    return _bound(P, P.rows, subset)


def naive_transitive_close(rows):
    """Reflexive-transitive closure of a square bit-matrix (list of ints),
    in place, by Warshall's pivots one row at a time."""
    n = len(rows)
    for i in range(n):
        rows[i] |= 1 << i
    for k in range(n):
        bit = 1 << k
        rk = rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= rk
    return rows


def tagged_carrier(pol):
    """The carrier of the polarity's preorders: its left elements, then
    its right elements, each tagged with its side."""
    return tuple(map(tag_x, pol.x.elements)) + tuple(map(tag_y, pol.y.elements))


def _order_pairs(P):
    """The pairs a <= b of the poset P, row by row."""
    return [(a, b) for a in P.elements for b in P.elements if leq(P, a, b)]


# -- the coherence conditions --------------------------------------------------


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _gate(pol, limit=10):
    if len(pol.base) > limit:
        raise CarrierTooLarge("naive subset scan gated at %d base elements" % limit)


def naive_c7(pol):
    """C7 by scanning every subset S of the base: where the left images of
    S have a meet x, each y2 related from x lies above each y1 below every
    right image of S."""
    _gate(pol)
    X, Y = pol.x, pol.y
    for s in _subsets(pol.base.elements):
        x = glb(X, [pol.ex(p) for p in s])
        if x is None:
            continue
        below = [y1 for y1 in Y.elements if all(leq(Y, y1, pol.ey(p)) for p in s)]
        for y2 in Y.elements:
            if (x, y2) in pol.rel:
                for y1 in below:
                    if not leq(Y, y1, y2):
                        return False, (x, y1, y2, s)
    return True, None


def naive_c8(pol):
    """C8, dually: where the right images of a base subset T have a join
    y, each x1 related to y lies below each x2 above every left image of
    T."""
    _gate(pol)
    X, Y = pol.x, pol.y
    for t in _subsets(pol.base.elements):
        y = lub(Y, [pol.ey(p) for p in t])
        if y is None:
            continue
        above = [x2 for x2 in X.elements if all(leq(X, pol.ex(p), x2) for p in t)]
        for x1 in X.elements:
            if (x1, y) in pol.rel:
                for x2 in above:
                    if not leq(X, x1, x2):
                        return False, (x1, x2, y, t)
    return True, None


def naive_z_s(pol):
    """All pairs (y, x) with some base subset whose left-image meet sits
    below x while y sits below every right image of the subset."""
    _gate(pol)
    X, Y = pol.x, pol.y
    out = set()
    for s in _subsets(pol.base.elements):
        m = glb(X, [pol.ex(p) for p in s])
        if m is not None:
            below = [y for y in Y.elements if all(leq(Y, y, pol.ey(p)) for p in s)]
            out.update((y, x) for x in X.elements if leq(X, m, x) for y in below)
    return frozenset(out)


def naive_z_t(pol):
    """All pairs (y, x) with some base subset whose right-image join sits
    above y while x sits above every left image of the subset."""
    _gate(pol)
    X, Y = pol.x, pol.y
    out = set()
    for t in _subsets(pol.base.elements):
        j = lub(Y, [pol.ey(p) for p in t])
        if j is not None:
            above = [x for x in X.elements if all(leq(X, pol.ex(p), x) for p in t)]
            out.update((y, x) for y in Y.elements if leq(Y, y, j) for x in above)
    return frozenset(out)


def _bound_kept(pol, r, side, image, tag, bound):
    """The first base subset whose images have a bound in `side` that is
    not a greatest lower bound of the tagged images under the relation
    `r` (a preorder's `rel`, or its converse for joins)."""
    carrier = tagged_carrier(pol)
    for s in _subsets(pol.base.elements):
        m = bound(side, [image(p) for p in s])
        if m is None:
            continue
        images = [tag(image(p)) for p in s]
        lower = [z for z in carrier if all(r(z, i) for i in images)]
        if tag(m) not in lower or not all(r(z, tag(m)) for z in lower):
            return False, s
    return True, None


def naive_p4(pol, rel):
    """P4 on the preorder `rel`, every subset: where the left images of a
    base subset have a meet m, m is a greatest lower bound of them under
    `rel`, so the class of m is the meet of their classes."""
    _gate(pol)
    return _bound_kept(pol, rel.rel, pol.x, pol.ex, tag_x, glb)


def naive_p5(pol, rel):
    """P5, dually: a join of right images is a least upper bound of them
    under `rel`."""
    _gate(pol)
    return _bound_kept(pol, lambda a, b: rel.rel(b, a), pol.y, pol.ey, tag_y, lub)


def _naive_c1(X, Y, rel):
    return next(
        (
            (False, (x1, x2, y))
            for x1 in X.elements
            for x2 in X.elements
            for y in Y.elements
            if leq(X, x1, x2) and (x2, y) in rel and (x1, y) not in rel
        ),
        (True, None),
    )


def _naive_c2(X, Y, rel):
    return next(
        (
            (False, (x, y1, y2))
            for y2 in Y.elements
            for y1 in Y.elements
            for x in X.elements
            if leq(Y, y1, y2) and (x, y1) in rel and (x, y2) not in rel
        ),
        (True, None),
    )


def naive_conditions_c1_to_c6(pol):
    """The six subset-free conditions, written as literal quantifier loops,
    each witness the first in the order `check_coherence` reads it."""
    X, Y, P, R, ex, ey = pol.x, pol.y, pol.base.elements, pol.rel, pol.ex, pol.ey
    return {
        "C1": _naive_c1(X, Y, R),
        "C2": _naive_c2(X, Y, R),
        "C3": _verdict(p for p in P if (ex(p), ey(p)) not in R),
        "C4": _verdict(
            (x, p, y)
            for p in P
            for x in X.elements
            for y in Y.elements
            if (x, ey(p)) in R and (ex(p), y) in R and (x, y) not in R
        ),
        "C5": _verdict(
            (x1, p, x2)
            for p in P
            for x1 in X.elements
            for x2 in X.elements
            if (x1, ey(p)) in R and leq(X, ex(p), x2) and not leq(X, x1, x2)
        ),
        "C6": _verdict(
            (p, y1, y2)
            for p in P
            for y2 in Y.elements
            for y1 in Y.elements
            if (ex(p), y2) in R and leq(Y, y1, ey(p)) and not leq(Y, y1, y2)
        ),
    }


def naive_e1_e2(pol):
    """E1 and E2 as literal quantifier loops: x1 not below x2 has a right
    element related to x2 and not to x1, y1 not below y2 a left element
    related to y1 and not to y2; E2's witness is first in y2, then y1."""
    X, Y, R = pol.x, pol.y, pol.rel
    e1 = (
        (x1, x2)
        for x1 in X.elements
        for x2 in X.elements
        if x1 != x2 and not leq(X, x1, x2)
        and all((x1, y) in R for y in Y.elements if (x2, y) in R)
    )
    e2 = (
        (y1, y2)
        for y2 in Y.elements
        for y1 in Y.elements
        if y1 != y2 and not leq(Y, y1, y2)
        and all((x, y2) in R for x in X.elements if (x, y1) in R)
    )
    return {name: _verdict(w) for name, w in (("E1", e1), ("E2", e2))}


def naive_s1_s2(pol):
    """S1 and S2 as literal quantifier loops: the first base element p
    whose left image's down-set is not the set of elements related to
    ey(p) (S1), whose right image's up-set is not the set of elements
    ex(p) is related to (S2)."""
    X, Y, R, P = pol.x, pol.y, pol.rel, pol.base.elements
    s1 = (p for p in P if {x for x in X.elements if leq(X, x, pol.ex(p))}
          != {x for x in X.elements if (x, pol.ey(p)) in R})
    s2 = (p for p in P if {y for y in Y.elements if leq(Y, pol.ey(p), y)}
          != {y for y in Y.elements if (pol.ex(p), y) in R})
    return {"S1": _verdict(s1), "S2": _verdict(s2)}


def _verdict(witnesses):
    w = next(witnesses, None)
    return w is None, w


def realizable_meet(pol, x, y):
    """Whether x is a meet realizable at y: the meet of the left images
    ex(p) above x of the base elements p whose right image lies above y."""
    X, ex = pol.x, pol.ex
    images = [ex(p) for p in pol.base.elements if leq(X, x, ex(p)) and leq(pol.y, y, pol.ey(p))]
    return glb(X, images) == x


def realizable_join(pol, y, x):
    """Whether y is a join realizable at x: the join of the right images
    ey(p) below y of the base elements p whose left image lies below x."""
    Y, ey = pol.y, pol.ey
    images = [ey(p) for p in pol.base.elements if leq(Y, ey(p), y) and leq(pol.x, pol.ex(p), x)]
    return lub(Y, images) == y


def oracle_report_conditions(pol):
    """The twelve conditions of `check_coherence` with their first
    witnesses, in its order, as literal loops over elements: C1 to C6,
    E1, E2, S1 and S2 as the naive loops above read them, and C7 (C8) in
    the order of the right (left) element a meet (join) is realizable at."""
    X, Y, R = pol.x, pol.y, pol.rel
    out = naive_conditions_c1_to_c6(pol)
    out["C7"] = _verdict(
        (x, y1, y2)
        for y1 in Y.elements
        for x in X.elements
        if realizable_meet(pol, x, y1)
        for y2 in Y.elements
        if (x, y2) in R and not leq(Y, y1, y2)
    )
    out["C8"] = _verdict(
        (x1, x2, y)
        for x2 in X.elements
        for y in Y.elements
        if realizable_join(pol, y, x2)
        for x1 in X.elements
        if (x1, y) in R and not leq(X, x1, x2)
    )
    return {**out, **naive_e1_e2(pol), **naive_s1_s2(pol)}


def naive_coherence_level(pol):
    checks = naive_conditions_c1_to_c6(pol)
    if not (checks["C1"][0] and checks["C2"][0]):
        return None
    if not (checks["C3"][0] and checks["C4"][0]):
        return 0
    if not (checks["C5"][0] and checks["C6"][0]):
        return 1
    if not (naive_c7(pol)[0] and naive_c8(pol)[0]):
        return 2
    return 3


# -- relations and preorders, pair by pair -------------------------------------


def oracle_coherent_relations(x, y, forced, limit=13):
    """All 0-coherent relations between the posets `x` and `y` that
    contain the `forced` pairs, found by trying every subset of the other
    pairs and keeping those that pass the literal C1 and C2 loops.  The
    other pairs are taken row by row (left element, then right element)
    and a subset is read as a binary number, the first pair lowest;
    results come back in ascending order of that number.
    """
    forced = frozenset(forced)
    free = [(a, b) for a in x.elements for b in y.elements if (a, b) not in forced]
    if len(free) > limit:
        raise CarrierTooLarge(
            "relation enumeration gated at %d undetermined pairs" % limit
        )
    results = []
    for chosen in range(1 << len(free)):
        rel = forced | {free[k] for k in range(len(free)) if chosen >> k & 1}
        if _naive_c1(x, y, rel)[0] and _naive_c2(x, y, rel)[0]:
            results.append(rel)
    return results


def _coherent_relations(X, Y, floor):
    """The 0-coherent relations between the posets X and Y containing the
    pairs of the left bit-rows `floor`, each as left bit-rows, walked
    rather than swept: the reference for `extend._least_graded`.

    R satisfies C1 and C2 exactly when ≤X ∪ R ∪ ≤Y is transitive on the
    carrier X + Y, so these are the closed relations
    (`oracle_closed_relations`) on the rows of X, then Y, that keep both
    side orders as they are and relate nothing from right to left.
    """
    nx, full = len(X), (1 << len(X) + len(Y)) - 1
    forced = [r | floor[i] << nx for i, r in enumerate(X.rows)] + [r << nx for r in Y.rows]
    forbidden = [~r & (1 << nx) - 1 for r in X.rows] + [full & ~(r << nx) for r in Y.rows]
    for rows in oracle_closed_relations(naive_transitive_close(forced), forbidden):
        yield [r >> nx for r in rows[:nx]]


def naive_transitivity_witness(carrier, rows):
    """The first (a, b, c) over `carrier`, ordered by a, then b, then c in
    carrier order, with a R b and b R c but not a R c for the bit-rows
    `rows`, by the literal triple loop; None when R is transitive."""
    n = len(carrier)
    for i in range(n):
        outside = [j for j in range(n) if not rows[i] >> j & 1]
        for k in range(n):
            if rows[i] >> k & 1:
                for j in outside:
                    if rows[k] >> j & 1:
                        return carrier[i], carrier[k], carrier[j]
    return None


def oracle_order_failure(elements, rows):
    """The error `Poset(elements, rows)` raises on a matrix of the right
    length, as (type, message, witness), or None: row by row the first
    missing diagonal bit, then per set bit, lowest first, one past the
    last element or a mutual pair; transitivity, without a witness, last.
    """
    n = len(elements)
    for i in range(n):
        if not rows[i] >> i & 1:
            return NotPreorder, "relation is not reflexive", elements[i]
        for j in range(rows[i].bit_length()):
            if not rows[i] >> j & 1:
                continue
            if j >= n:
                return CarrierMismatch, "matrix wider than element count", None
            if i != j and rows[j] >> i & 1:
                a, b = elements[i], elements[j]
                return (
                    AntisymmetryViolation,
                    "elements %r and %r are mutually below each other" % (a, b),
                    (a, b),
                )
    if naive_transitivity_witness(elements, rows) is not None:
        return NotPreorder, "relation is not transitive", None
    return None


def oracle_closed_relations(forced, forbidden):
    """The reference for `order._closed_relations`, results and order:
    the same walk with the state held as tuples of bit-rows.

    Pairs are visited in row-major order.  For each open pair (i, j), one
    neither held nor barred, the walk first leaves it out, barring it for
    the rest of the branch, and then takes it in with ↓i × ↑j: row i and
    every row holding i gain j and row j.  A take that meets a barred
    pair dies; every other branch yields its rows.
    """
    n = len(forced)
    stack = [(tuple(forced), tuple(forbidden), -1)]
    while stack:
        rows, barred, p = stack.pop()
        if p >= 0:
            i, j = divmod(p, n)
            up = rows[j] | 1 << j
            rows = tuple(
                r | up if a == i or r >> i & 1 else r for a, r in enumerate(rows)
            )
        if any(r & b for r, b in zip(rows, barred)):
            continue
        for p in range(p + 1, n * n):
            i, j = divmod(p, n)
            if not (rows[i] | barred[i]) >> j & 1:
                stack.append((rows, barred, p))
                barred = barred[:i] + (barred[i] | 1 << j,) + barred[i + 1 :]
        yield rows


def oracle_enumerate_preorders(carrier, forced, forbidden):
    """All reflexive transitive relations on `carrier` containing the
    `forced` pairs and avoiding the `forbidden` pairs, found by trying
    every subset of the undetermined pairs.  Results come back as
    UnionPreorder values in a deterministic order.
    """
    carrier = tuple(carrier)
    n = len(carrier)
    if n > 6:
        raise CarrierTooLarge("oracle enumeration gated at 6 carrier elements")
    index = {e: i for i, e in enumerate(carrier)}
    forced_rows = [1 << i for i in range(n)]
    forbidden_rows = [0] * n
    for a, b in forced:
        forced_rows[index[a]] |= 1 << index[b]
    for a, b in forbidden:
        forbidden_rows[index[a]] |= 1 << index[b]
    naive_transitive_close(forced_rows)
    if any(forced_rows[i] & forbidden_rows[i] for i in range(n)):
        return []
    free = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and not forced_rows[i] >> j & 1
        and not forbidden_rows[i] >> j & 1
    ]
    if len(free) > 16:
        raise CarrierTooLarge("naive oracle gated at 16 undetermined pairs")
    results = []
    for chosen in range(1 << len(free)):
        rows = list(forced_rows)
        for k in range(len(free)):
            if chosen >> k & 1:
                i, j = free[k]
                rows[i] |= 1 << j
        if naive_transitivity_witness(carrier, rows) is None:
            results.append(UnionPreorder(carrier, rows))
    return results


def oracle_rigidity_failures(pol, u):
    """The absent pairs of `u` whose closure into `u` is still a grade-3
    preorder for the polarity, found by closing each pair in and grading
    the result anew with `oracle_is_n_preorder`."""
    n = len(u.carrier)
    z = naive_z_s(pol), naive_z_t(pol)
    out = []
    for i in range(n):
        for j in range(n):
            if u.rows[i] >> j & 1:
                continue
            rows = [r | (1 << j if k == i else 0) for k, r in enumerate(u.rows)]
            enlarged = UnionPreorder(u.carrier, naive_transitive_close(rows))
            if oracle_is_n_preorder(pol, enlarged, 3, z).ok:
                out.append((u.carrier[i], u.carrier[j]))
    return out


# -- the completion laws ---------------------------------------------------------


def oracle_complete_hom_failure(g):
    """Why the monotone map `g` between finite lattices is not a complete
    homomorphism, by the literal pairwise scan: ("top", t), ("bottom", b),
    or ("meets", (a, b)) / ("joins", (a, b)) for the first pair of source
    elements whose meet or join is lost; None when it is one."""
    s, t, f = g.source, g.target, g.idx
    sides = (("meets", s.cols, t.cols), ("joins", s.rows, t.rows))
    for kind, (_, src, tgt) in zip(("top", "bottom"), sides):
        if f[literal_bound(src, 0)] != literal_bound(tgt, 0):
            return kind, s.elements[literal_bound(src, 0)]
    for a, b in itertools.product(range(len(f)), repeat=2):
        for kind, src, tgt in sides:
            if f[literal_bound(src, 1 << a | 1 << b)] != literal_bound(tgt, 1 << f[a] | 1 << f[b]):
                return kind, (s.elements[a], s.elements[b])
    return None


def oracle_complete_homs(src, tgt, forced):
    """All complete homomorphisms between the lattices `src` and `tgt`
    that agree with the assignment `forced`, by backtracking over the
    source elements from the bottom up, keeping each partial assignment
    monotone, and testing every full one with the pairwise scan.
    Refuses sources past 6 and targets past 8 elements."""
    if len(src) > 6 or len(tgt) > 8:
        raise CarrierTooLarge("homomorphism search gated at 6 and 8 elements")
    order = sorted(src.elements, key=lambda e: sum(leq(src, d, e) for d in src.elements))
    out = []

    def extend(k, partial):
        if k == len(order):
            g = MonotoneMap(src, tgt, dict(partial))
            if oracle_complete_hom_failure(g) is None:
                out.append(g)
            return
        e = order[k]
        for v in [forced[e]] if e in forced else tgt.elements:
            if all(
                (not leq(src, p, e) or leq(tgt, pv, v))
                and (not leq(src, e, p) or leq(tgt, v, pv))
                for p, pv in partial.items()
            ):
                partial[e] = v
                extend(k + 1, partial)
                del partial[e]

    extend(0, {})
    return out


def oracle_bounds_failure(f, src, tgt):
    """The first subset (as a mask) of the source of the index map `f`
    that has a meet not sent to the meet of its images, or None, for
    `src`/`tgt` the `cols` of source and target; given their `rows`, the
    same for joins.  Scans all subsets with `literal_bound`, so sources
    past 12 elements are refused."""
    n = len(src)
    if n > 12:
        raise CarrierTooLarge("preservation scan gated at 12 elements")
    for mask in range(1 << n):
        g = literal_bound(src, mask)
        images = sum({1 << f[i] for i in range(n) if mask >> i & 1})
        if g is not None and literal_bound(tgt, images) != f[g]:
            return mask
    return None


def oracle_monotone_failure(source, target, assignment):
    """The first pair (p, q), in carrier order, with p <= q in `source`
    but assignment[p] !<= assignment[q] in `target`, by the literal loop
    over `leq`; None when the assignment is monotone."""
    return next(
        (
            (p, q)
            for p, q in _order_pairs(source)
            if not leq(target, assignment[p], assignment[q])
        ),
        None,
    )


def oracle_reflection_failure(f):
    """A pair (p, q) with f(p) <= f(q) but not p <= q, or None."""
    for p in f.source.elements:
        for q in f.source.elements:
            if leq(f.target, f(p), f(q)) and not leq(f.source, p, q):
                return p, q
    return None


def oracle_is_cut_stable(f):
    """For every q1 !<= q2 in the target there are p1 !<= p2 in the source
    with f^{-1}(up q1) inside up p1 and f^{-1}(down q2) inside down p2."""
    src, tgt, S = f.source, f.target, f.source.elements
    for q1 in tgt.elements:
        for q2 in tgt.elements:
            if leq(tgt, q1, q2):
                continue
            pre_up = [p for p in S if leq(tgt, q1, f(p))]
            pre_down = [p for p in S if leq(tgt, f(p), q2)]
            below = [p1 for p1 in S if all(leq(src, p1, p) for p in pre_up)]
            above = [p2 for p2 in S if all(leq(src, p, p2) for p in pre_down)]
            if all(leq(src, p1, p2) for p1 in below for p2 in above):
                return False
    return True


def oracle_is_complete_lattice(poset):
    """For a finite poset: nonempty, with a top, a bottom, and all
    binary meets and joins, each taken with `literal_bound`."""
    n = len(poset.elements)
    masks = [0] + [1 << i | 1 << j for i in range(n) for j in range(i + 1, n)]
    return n > 0 and all(
        literal_bound(vecs, m) is not None for m in masks for vecs in (poset.cols, poset.rows)
    )


# -- polarity morphisms ----------------------------------------------------------


def oracle_cross_order(morphism):
    """The first (y, x), x-major in carrier order, with y below x in the
    grade-3 preorder of the source, whose pairs from right to left are
    those of `naive_z_s` and `naive_z_t`, while hy(y) is not below hx(x)
    in that of the target; None when the cross-side order is kept."""
    s, t, hx, hy = morphism.source, morphism.target, morphism.hx, morphism.hy
    back_s, back_t = naive_z_s(s) | naive_z_t(s), naive_z_s(t) | naive_z_t(t)
    return next(
        (
            (y, x)
            for x in s.x.elements
            for y in s.y.elements
            if (y, x) in back_s and (hy(y), hx(x)) not in back_t
        ),
        None,
    )


def oracle_unreflected(morphism):
    """The first absent pair (x', y') of the morphism's target, in carrier
    order, that no absent source pair bounds, by the literal quantifier
    loops over both sides; None when every absent pair is reflected."""
    s, t = morphism.source, morphism.target
    hx, hy = morphism.hx, morphism.hy

    def reflects(xp, yp):
        for x in s.x.elements:
            if not all(
                leq(s.x, x, a) for a in s.x.elements if leq(t.x, xp, hx(a))
            ):
                continue
            for y in s.y.elements:
                if (x, y) in s.rel:
                    continue
                if not all(
                    leq(s.y, b, y) for b in s.y.elements if leq(t.y, hy(b), yp)
                ):
                    continue
                if not all(
                    (a, y) in s.rel for a in s.x.elements if (hx(a), yp) in t.rel
                ):
                    continue
                if all(
                    (x, b) in s.rel for b in s.y.elements if (xp, hy(b)) in t.rel
                ):
                    return True
        return False

    for xp in t.x.elements:
        for yp in t.y.elements:
            if (xp, yp) not in t.rel and not reflects(xp, yp):
                return xp, yp
    return None


# -- the relation lattices of an extension context -----------------------------


def _bracket(ctx, x, y):
    """The outer pairs (x', y') that the inner pair (x, y) brackets
    through the side embeddings: x' <= ix(x) and iy(y) <= y', read off
    the column of ix(x) and the row of iy(y)."""
    xo, yo = ctx.ix.target, ctx.iy.target
    down, up = xo.cols[xo.index[ctx.ix(x)]], yo.rows[yo.index[ctx.iy(y)]]
    below = [a for k, a in enumerate(xo.elements) if down >> k & 1]
    return {(a, b) for k, b in enumerate(yo.elements) if up >> k & 1 for a in below}


def oracle_extend_relation(ctx):
    """The saturation of the inner relation, pair by pair: x' is related
    to y' when some inner related pair brackets them."""
    return frozenset().union(*(_bracket(ctx, x, y) for x, y in ctx.inner.rel))


def oracle_restrict_relation(ctx, sbar):
    """The inner pairs whose image pair lies in `sbar`."""
    return frozenset(
        (x, y)
        for x in ctx.inner.x.elements
        for y in ctx.inner.y.elements
        if (ctx.ix(x), ctx.iy(y)) in sbar
    )


def oracle_relation_lattice_adjunction(ctx):
    """The adjunction between the inner relations and the 0-coherent
    outer relations, by brute force: the unit on every inner relation,
    the counit on every 0-coherent outer relation, and the two-sided law
    on every pair of them when that fits `PAIR_BUDGET` and on
    `LAW_SAMPLES` seeded samples otherwise.  Each `*_checked` counts
    relations (or pairs of them); the witness is the first failing
    relation (or pair), the outer relations taken in ascending order of
    their pair masks.  Gated at 12 inner and 16 outer pairs.
    """
    X, Y = ctx.inner.x, ctx.inner.y
    xo, yo = ctx.ix.target, ctx.iy.target
    if len(X) * len(Y) > 12 or len(xo) * len(yo) > 16:
        raise CarrierTooLarge("relation lattices too large to enumerate")
    inner_pairs = [(a, b) for a in X.elements for b in Y.elements]
    all_inner = [
        frozenset(p for k, p in enumerate(inner_pairs) if m >> k & 1)
        for m in range(1 << len(inner_pairs))
    ]
    walked = _coherent_relations(xo, yo, [0] * len(xo))
    coherent_outer = [
        frozenset(
            (xo.elements[i], b)
            for i, row in enumerate(rows)
            for j, b in enumerate(yo.elements)
            if row >> j & 1
        )
        # Rows from the last compare as their pair masks do.
        for rows in sorted(walked, key=lambda rows: rows[::-1])
    ]

    # The saturation of a relation is the union of what its pairs bracket.
    brackets = {p: _bracket(ctx, *p) for p in inner_pairs}

    def saturation(r):
        return frozenset().union(*(brackets[p] for p in r))

    failures = []
    extended = {}
    for r in all_inner:
        extended[r] = saturation(r)
        back = oracle_restrict_relation(ctx, extended[r])
        if not r <= back or r != back and _naive_c1(X, Y, r)[0] and _naive_c2(X, Y, r)[0]:
            failures.append(("unit", r))
    unit_holds = not failures

    counit_holds = True
    restricted = {}
    for s in coherent_outer:
        restricted[s] = under = oracle_restrict_relation(ctx, s)
        if not saturation(under) <= s:
            counit_holds = False
            failures.append(("counit", s))

    law_pairs = len(all_inner) * len(coherent_outer)
    if law_pairs <= PAIR_BUDGET:
        candidates = itertools.product(all_inner, coherent_outer)
        law_checked = law_pairs
    else:
        rng = random.Random(LAW_SEED)
        candidates = [
            (rng.choice(all_inner), rng.choice(coherent_outer))
            for _ in range(LAW_SAMPLES)
        ]
        law_checked = LAW_SAMPLES
    law_holds = True
    for r, s in candidates:
        if (extended[r] <= s) != (r <= restricted[s]):
            law_holds = False
            failures.append(("law", (r, s)))
            break
    return AdjunctionReport(
        unit_checked=len(all_inner),
        unit_holds=unit_holds,
        counit_checked=len(coherent_outer),
        counit_holds=counit_holds,
        law_checked=law_checked,
        law_holds=law_holds,
        witness=failures[0] if failures else None,
    )


# -- polar maps and the concept preorder, set by set -----------------------


def polar_right(pol, xs):
    """Right elements related to everything in `xs`."""
    return frozenset(
        b for b in pol.y.elements if all((a, b) in pol.rel for a in xs)
    )


def polar_left(pol, ys):
    """Left elements related to everything in `ys`."""
    return frozenset(
        a for a in pol.x.elements if all((a, b) in pol.rel for b in ys)
    )


def xi(pol, x):
    """The extent generated by one left element."""
    return polar_left(pol, polar_right(pol, [x]))


def upsilon(pol, y):
    """The extent of one right element."""
    return polar_left(pol, [y])


def prop_order_preorder(pol):
    """The preorder on the tagged union defined pointwise from the
    relation alone: left-left by attribute-row containment, right-right
    by extent containment, across by the relation, and right-left by the
    rectangle condition.  The reference for `concepts.inclusion_preorder`,
    which reads the same preorder off the concept lattice."""
    X, Y = pol.x, pol.y
    pairs = []
    for x1 in X.elements:
        for x2 in X.elements:
            if all((x1, y) in pol.rel for y in Y.elements if (x2, y) in pol.rel):
                pairs.append((tag_x(x1), tag_x(x2)))
    for y1 in Y.elements:
        for y2 in Y.elements:
            if all((x, y2) in pol.rel for x in X.elements if (x, y1) in pol.rel):
                pairs.append((tag_y(y1), tag_y(y2)))
    for x in X.elements:
        for y in Y.elements:
            if (x, y) in pol.rel:
                pairs.append((tag_x(x), tag_y(y)))
    for y in Y.elements:
        for x in X.elements:
            if all(
                (x1, y1) in pol.rel
                for x1 in X.elements
                if (x1, y) in pol.rel
                for y1 in Y.elements
                if (x, y1) in pol.rel
            ):
                pairs.append((tag_y(y), tag_x(x)))
    return UnionPreorder.from_pairs(tagged_carrier(pol), pairs)


# -- canonical relations and graded preorders, pair by pair ---------------


def _tagged(pol, x_pairs=(), y_pairs=(), cross_xy=(), cross_yx=()):
    pairs = [(e, e) for e in tagged_carrier(pol)]
    pairs.extend((tag_x(a), tag_x(b)) for a, b in x_pairs)
    pairs.extend((tag_y(a), tag_y(b)) for a, b in y_pairs)
    pairs.extend((tag_x(a), tag_y(b)) for a, b in cross_xy)
    pairs.extend((tag_y(a), tag_x(b)) for a, b in cross_yx)
    return UnionPreorder.from_pairs(tagged_carrier(pol), pairs)


def oracle_canonical_relations(pol):
    """The named pair-sets of the polarity, keyed by name (`z_x`, `z_y`,
    `z_yx`, `z_yx_alt`, `z_s`, `z_t`), and the canonical relations built
    from them pair by pair, keyed by name: `r_zero`, `r_hat_m`, `r_hat_g`,
    and the pointwise relation `structure_of` compares with `r_hat_g`.

    The saturation adds, through each base element p, x1 below x2 when
    x1 R ey(p) and ex(p) <= x2 (`z_x`), y1 below y2 when y1 <= ey(p) and
    ex(p) R y2 (`z_y`), and y below x when y <= ey(p1), ex(p1) R ey(p2)
    and ex(p2) <= x (`z_yx`); pointwise, y is below x when every base
    element sent below y on the right is below every one sent above x on
    the left (`z_yx_alt`)."""
    X, Y, P, R, ex, ey = pol.x, pol.y, pol.base, pol.rel, pol.ex, pol.ey
    ps = P.elements
    sides = _order_pairs(X), _order_pairs(Y)
    sets = {
        "z_x": frozenset(sides[0]).union(
            (x1, x2)
            for p in ps
            for x1 in X.elements
            if (x1, ey(p)) in R
            for x2 in X.elements
            if leq(X, ex(p), x2)
        ),
        "z_y": frozenset(sides[1]).union(
            (y1, y2)
            for p in ps
            for y1 in Y.elements
            if leq(Y, y1, ey(p))
            for y2 in Y.elements
            if (ex(p), y2) in R
        ),
        "z_yx": frozenset(
            (y, x)
            for p1 in ps
            for p2 in ps
            if (ex(p1), ey(p2)) in R
            for y in Y.elements
            if leq(Y, y, ey(p1))
            for x in X.elements
            if leq(X, ex(p2), x)
        ),
        "z_yx_alt": frozenset(
            (y, x)
            for y in Y.elements
            for x in X.elements
            if all(
                leq(P, k1, k2)
                for k1 in ps
                if leq(Y, ey(k1), y)
                for k2 in ps
                if leq(X, x, ex(k2))
            )
        ),
        "z_s": naive_z_s(pol),
        "z_t": naive_z_t(pol),
    }
    return sets, {
        name: _tagged(pol, *along, R, back)
        for name, along, back in (
            ("r_zero", sides, ()),
            ("r_hat_m", (sets["z_x"], sets["z_y"]), sets["z_yx"]),
            ("r_hat_g", sides, sets["z_s"] | sets["z_t"]),
            ("pointwise", sides, sets["z_yx_alt"]),
        )
    }


def _forced(pol, n):
    """The tagged pairs every n-preorder holds besides those across: the
    side orders (P2, P3), from grade 1 each base element's two image pairs
    (commutation), and from grade 3 the pairs of `naive_z_s` and
    `naive_z_t` (P4, P5).  The reference for `polarity._grade_masks`."""
    out = {(tag_x(a), tag_x(b)) for a, b in _order_pairs(pol.x)}
    out |= {(tag_y(a), tag_y(b)) for a, b in _order_pairs(pol.y)}
    if n >= 1:
        for p in pol.base.elements:
            out |= {(tag_x(pol.ex(p)), tag_y(pol.ey(p))), (tag_y(pol.ey(p)), tag_x(pol.ex(p)))}
    if n >= 3:
        out |= {(tag_y(b), tag_x(a)) for b, a in naive_z_s(pol) | naive_z_t(pol)}
    return out


def _forbidden(pol, n):
    """The tagged pairs no n-preorder holds besides those across: from
    grade 2, the pairs outside the side orders (reflectX, reflectY)."""
    if n < 2:
        return set()
    return {
        (tag(a), tag(b))
        for side, tag in ((pol.x, tag_x), (pol.y, tag_y))
        for a in side.elements
        for b in side.elements
        if not leq(side, a, b)
    }


def _clause_failures(pol, rel, n, z):
    """Each clause of an n-preorder with its first failure, or None, in
    the order `is_n_preorder` decides them; lazily, so that grade 3's
    pairs are built only when every clause before them holds."""
    X, Y, r, rows, carrier = pol.x, pol.y, rel.rel, rel.rows, rel.carrier

    def along(side, tag, ordered):
        return next(
            (
                (a, b)
                for a in side.elements
                for b in side.elements
                if leq(side, a, b) == ordered and r(tag(a), tag(b)) != ordered
            ),
            None,
        )

    yield "reflexive", next((e for i, e in enumerate(carrier) if not rows[i] >> i & 1), None)
    yield "transitive", naive_transitivity_witness(carrier, rows)
    yield "P1", next(
        (
            (a, b)
            for a in X.elements
            for b in Y.elements
            if r(tag_x(a), tag_y(b)) != ((a, b) in pol.rel)
        ),
        None,
    )
    yield "P2", along(X, tag_x, True)
    yield "P3", along(Y, tag_y, True)
    if n >= 1:
        images = [(p, tag_x(pol.ex(p)), tag_y(pol.ey(p))) for p in pol.base.elements]
        yield "commutation", next((p for p, a, b in images if not (r(a, b) and r(b, a))), None)
    if n >= 2:
        yield "reflectX", along(X, tag_x, False)
        yield "reflectY", along(Y, tag_y, False)
    if n >= 3:
        for clause, pairs in zip(("P4", "P5"), z or (naive_z_s(pol), naive_z_t(pol))):
            yield clause, next(
                (
                    (b, a)
                    for b in Y.elements
                    for a in X.elements
                    if (b, a) in pairs and not r(tag_y(b), tag_x(a))
                ),
                None,
            )


def oracle_is_n_preorder(pol, rel, n, z=None):
    """`is_n_preorder` clause by clause over elements in carrier order:
    reflexive, transitive, P1, P2, P3, from grade 1 commutation, from
    grade 2 reflectX and reflectY, from grade 3 P4 and P5, the pairs of
    `naive_z_s` and `naive_z_t`, or of `z`, those two computed once."""
    if not 0 <= n <= 3:
        raise ValueError("grade must be between 0 and 3")
    if rel.carrier != tagged_carrier(pol):
        raise CarrierMismatch("relation carrier does not match the polarity")
    failures = _clause_failures(pol, rel, n, z)
    return next(
        (NPreorderVerdict(False, c, w) for c, w in failures if w is not None),
        NPreorderVerdict(True),
    )


# -- isomorphisms over a base, by search -----------------------------------


def _iso_candidates(p1, p2):
    """Per-element candidate masks for an order isomorphism p1 -> p2,
    pruned by up/down degrees; None when the degrees cannot match."""
    if len(p1) != len(p2):
        return None
    degs2 = {}
    for j in range(len(p2)):
        key = (p2.rows[j].bit_count(), p2.cols[j].bit_count())
        degs2[key] = degs2.get(key, 0) | 1 << j
    cand = []
    for i in range(len(p1)):
        m = degs2.get((p1.rows[i].bit_count(), p1.cols[i].bit_count()), 0)
        if not m:
            return None
        cand.append(m)
    return cand


def oracle_order_isomorphisms(p1, p2, forced=None):
    """Yield the order isomorphisms p1 -> p2 as MonotoneMaps,
    lexicographically by carrier order, by backtracking over injective
    assignments that keep the order both ways.  `forced` optionally pins
    the images of some elements."""
    n = len(p1)
    cand = _iso_candidates(p1, p2)
    if cand is None:
        return
    for e, im in (forced or {}).items():
        if im not in p2.index:
            return
        cand[p1.index[e]] &= 1 << p2.index[im]

    def extend(i, used, partial):
        if i == n:
            yield list(partial)
            return
        for j in range(len(p2)):
            if not (cand[i] & ~used) >> j & 1:
                continue
            if all(
                (p1.rows[i] >> k & 1) == (p2.rows[j] >> jk & 1)
                and (p1.rows[k] >> i & 1) == (p2.rows[jk] >> j & 1)
                for k, jk in enumerate(partial)
            ):
                partial.append(j)
                yield from extend(i + 1, used | 1 << j, partial)
                partial.pop()

    for sol in extend(0, 0, []):
        yield MonotoneMap(
            p1, p2, {p1.elements[i]: p2.elements[sol[i]] for i in range(n)}
        )


def oracle_extensions_isomorphic(e1, e2):
    """An order isomorphism between the targets of two extensions of one
    base that commutes with the embeddings, or None."""
    if e1.base != e2.base:
        raise CarrierMismatch("extensions do not share a base poset")
    forced = {e1(p): e2(p) for p in e1.base.elements}
    return next(oracle_order_isomorphisms(e1.target, e2.target, forced), None)


def oracle_polarity_isos_over_base(src, tgt):
    """All polarity isomorphisms src -> tgt whose base component is the
    identity: every pair of side isomorphisms over the base, kept when
    it carries the relation onto the relation."""
    forced_x = {src.ex(p): tgt.ex(p) for p in src.base.elements}
    forced_y = {src.ey(p): tgt.ey(p) for p in src.base.elements}
    out = []
    for gx in oracle_order_isomorphisms(src.x, tgt.x, forced_x):
        for gy in oracle_order_isomorphisms(src.y, tgt.y, forced_y):
            if all(
                ((gx(a), gy(b)) in tgt.rel) == ((a, b) in src.rel)
                for a in src.x.elements
                for b in src.y.elements
            ):
                out.append(
                    PolarityMorphism(
                        src, tgt, gx, MonotoneMap.identity(src.base), gy
                    )
                )
    return out
