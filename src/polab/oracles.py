"""Ground-truth oracles: literal quantifier scans and naive enumeration.

Everything here is deliberately slow and obvious.  The fast routes in
`polab.order`, `polab.polarity`, `polab.concepts`, `polab.morphisms`,
`polab.extend` and `polab.delta1` are validated against these in the
test suite; no other module of the package imports this one.
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
from .extend import AdjunctionReport, ExtensionContext
from .morphisms import PolarityMorphism
from .order import (
    MonotoneMap,
    UnionPreorder,
    _expressible,
    _mask_iter,
    _pack_blocks,
    _preimages,
    _union_of,
    tag_x,
    tag_y,
)
from .polarity import NPreorderVerdict, _Frame, is_n_preorder

# The adjunction law is checked on every pair of relations up to PAIR_BUDGET
# pairs, and on LAW_SAMPLES pairs drawn with LAW_SEED beyond it.
PAIR_BUDGET = 1 << 20
LAW_SAMPLES = 500
LAW_SEED = 0


def _subsets(items):
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def _gate(pol, limit=10):
    if len(pol.base) > limit:
        raise CarrierTooLarge("naive subset scan gated at %d base elements" % limit)


def naive_c7(pol):
    """C7 by scanning every subset of the base."""
    _gate(pol)
    X, Y = pol.x, pol.y
    for s in _subsets(pol.base.elements):
        x = X.meet([pol.ex(p) for p in s])
        if x is None:
            continue
        for y2 in Y.elements:
            if (x, y2) not in pol.rel:
                continue
            for y1 in Y.elements:
                if all(Y.leq(y1, pol.ey(p)) for p in s) and not Y.leq(y1, y2):
                    return False, (x, y1, y2, s)
    return True, None


def naive_c8(pol):
    _gate(pol)
    X, Y = pol.x, pol.y
    for t in _subsets(pol.base.elements):
        y = Y.join([pol.ey(p) for p in t])
        if y is None:
            continue
        for x1 in X.elements:
            if (x1, y) not in pol.rel:
                continue
            for x2 in X.elements:
                if all(X.leq(pol.ex(p), x2) for p in t) and not X.leq(x1, x2):
                    return False, (x1, x2, y, t)
    return True, None


def naive_z_s(pol):
    """All pairs (y, x) with some base subset whose left-image meet sits
    below x while y sits below every right image of the subset."""
    _gate(pol)
    X, Y = pol.x, pol.y
    out = set()
    for s in _subsets(pol.base.elements):
        m = X.meet([pol.ex(p) for p in s])
        if m is None:
            continue
        for x in X.up(m):
            for y in Y.elements:
                if all(Y.leq(y, pol.ey(p)) for p in s):
                    out.add((y, x))
    return frozenset(out)


def naive_z_t(pol):
    _gate(pol)
    X, Y = pol.x, pol.y
    out = set()
    for t in _subsets(pol.base.elements):
        j = Y.join([pol.ey(p) for p in t])
        if j is None:
            continue
        for y in Y.down(j):
            for x in X.elements:
                if all(X.leq(pol.ex(p), x) for p in t):
                    out.add((y, x))
    return frozenset(out)


def naive_p4(pol, rel):
    """Meet preservation of the left quotient embedding, every subset."""
    _gate(pol)
    q = rel.quotient()
    for s in _subsets(pol.base.elements):
        m = pol.x.meet([pol.ex(p) for p in s])
        if m is None:
            continue
        imgs = [q.project(tag_x(pol.ex(p))) for p in s]
        if q.poset.meet(imgs) != q.project(tag_x(m)):
            return False, s
    return True, None


def naive_p5(pol, rel):
    _gate(pol)
    q = rel.quotient()
    for t in _subsets(pol.base.elements):
        j = pol.y.join([pol.ey(p) for p in t])
        if j is None:
            continue
        imgs = [q.project(tag_y(pol.ey(p))) for p in t]
        if q.poset.join(imgs) != q.project(tag_y(j)):
            return False, t
    return True, None


def _naive_c1(X, Y, rel):
    return next(
        (
            (False, (x1, x2, y))
            for x1 in X.elements
            for x2 in X.elements
            for y in Y.elements
            if X.leq(x1, x2) and (x2, y) in rel and (x1, y) not in rel
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
            if Y.leq(y1, y2) and (x, y1) in rel and (x, y2) not in rel
        ),
        (True, None),
    )


def naive_conditions_c1_to_c6(pol):
    """The six subset-free conditions, written as literal quantifier loops,
    each witness the first in the order `check_coherence` reads it."""
    X, Y, P = pol.x, pol.y, pol.base
    out = {}
    out["C1"] = _naive_c1(X, Y, pol.rel)
    out["C2"] = _naive_c2(X, Y, pol.rel)
    out["C3"] = next(
        (
            (False, p)
            for p in P.elements
            if (pol.ex(p), pol.ey(p)) not in pol.rel
        ),
        (True, None),
    )
    out["C4"] = next(
        (
            (False, (x, p, y))
            for p in P.elements
            for x in X.elements
            for y in Y.elements
            if (x, pol.ey(p)) in pol.rel
            and (pol.ex(p), y) in pol.rel
            and (x, y) not in pol.rel
        ),
        (True, None),
    )
    out["C5"] = next(
        (
            (False, (x1, p, x2))
            for p in P.elements
            for x1 in X.elements
            for x2 in X.elements
            if (x1, pol.ey(p)) in pol.rel
            and X.leq(pol.ex(p), x2)
            and not X.leq(x1, x2)
        ),
        (True, None),
    )
    out["C6"] = next(
        (
            (False, (p, y1, y2))
            for p in P.elements
            for y2 in Y.elements
            for y1 in Y.elements
            if (pol.ex(p), y2) in pol.rel
            and Y.leq(y1, pol.ey(p))
            and not Y.leq(y1, y2)
        ),
        (True, None),
    )
    return out


def naive_e1_e2(pol):
    """E1 and E2 as literal quantifier loops: x1 not below x2 has a right
    element related to x2 and not to x1, y1 not below y2 a left element
    related to y1 and not to y2; E2's witness is first in y2, then y1."""
    X, Y, R = pol.x, pol.y, pol.rel
    e1 = (
        (x1, x2)
        for x1 in X.elements
        for x2 in X.elements
        if x1 != x2 and not X.leq(x1, x2)
        and all((x1, y) in R for y in Y.elements if (x2, y) in R)
    )
    e2 = (
        (y1, y2)
        for y2 in Y.elements
        for y1 in Y.elements
        if y1 != y2 and not Y.leq(y1, y2)
        and all((x, y2) in R for x in X.elements if (x, y1) in R)
    )
    return {name: _verdict(w) for name, w in (("E1", e1), ("E2", e2))}


def naive_s1_s2(pol):
    """S1 and S2 as literal quantifier loops: the first base element p
    whose left image's down-set is not the set of elements related to
    ey(p) (S1), whose right image's up-set is not the set of elements
    ex(p) is related to (S2)."""
    X, Y, R, P = pol.x, pol.y, pol.rel, pol.base.elements
    s1 = (p for p in P if {x for x in X.elements if X.leq(x, pol.ex(p))}
          != {x for x in X.elements if (x, pol.ey(p)) in R})
    s2 = (p for p in P if {y for y in Y.elements if Y.leq(pol.ey(p), y)}
          != {y for y in Y.elements if (pol.ex(p), y) in R})
    return {"S1": _verdict(s1), "S2": _verdict(s2)}


def _verdict(witnesses):
    w = next(witnesses, None)
    return w is None, w


def oracle_report_conditions(pol):
    """The twelve conditions of `check_coherence` with their first
    witnesses, in its order, as literal loops over elements: C1 to C6,
    E1, E2, S1 and S2 as the naive loops above read them, and C7 (C8) in
    the order of the right (left) element a meet (join) is realizable at.
    A meet is realizable at y1 when it is the meet of all the images
    ex(p) above it with y1 below ey(p); a join at x2, dually."""
    X, Y, P, R, ex, ey = pol.x, pol.y, pol.base.elements, pol.rel, pol.ex, pol.ey

    def meet_at(x, y1):
        return X.meet([ex(p) for p in P if X.leq(x, ex(p)) and Y.leq(y1, ey(p))]) == x

    def join_at(y, x2):
        return Y.join([ey(p) for p in P if Y.leq(ey(p), y) and X.leq(ex(p), x2)]) == y

    out = naive_conditions_c1_to_c6(pol)
    out["C7"] = _verdict(
        (x, y1, y2)
        for y1 in Y.elements
        for x in X.elements
        if meet_at(x, y1)
        for y2 in Y.elements
        if (x, y2) in R and not Y.leq(y1, y2)
    )
    out["C8"] = _verdict(
        (x1, x2, y)
        for x2 in X.elements
        for y in Y.elements
        if join_at(y, x2)
        for x1 in X.elements
        if (x1, y) in R and not X.leq(x1, x2)
    )
    return {**out, **naive_e1_e2(pol), **naive_s1_s2(pol)}


def oracle_naive_condition_check(pol, condition, rel=None):
    """Dispatch a literal check of one condition name.

    C1..C6 are plain loops, C7/C8 scan all base subsets, P4/P5 need the
    candidate preorder `rel`.
    """
    if condition in ("C1", "C2", "C3", "C4", "C5", "C6"):
        return naive_conditions_c1_to_c6(pol)[condition]
    if condition == "C7":
        return naive_c7(pol)
    if condition == "C8":
        return naive_c8(pol)
    if condition == "P4":
        return naive_p4(pol, rel)
    if condition == "P5":
        return naive_p5(pol, rel)
    raise ValueError("unknown condition %r" % (condition,))


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


def _coherent_relations(frame, floor):
    """The 0-coherent relations between the frame's sides containing the
    pairs of the left bit-rows `floor`, each as left bit-rows, walked
    rather than swept: the reference for `extend._least_graded`.

    R satisfies C1 and C2 exactly when ≤X ∪ R ∪ ≤Y is transitive on the
    carrier, so these are the closed relations (`oracle_closed_relations`)
    that keep both side orders as they are and relate nothing from right
    to left.
    """
    nx, ny = len(frame.xs), len(frame.ys)
    full_x, full_y = (1 << nx) - 1, (1 << ny) - 1
    forced = frame.relation(frame.pack(frame.xrows, frame.yrows, floor)).rows
    forbidden = frame.pack(
        [full_x & ~r for r in frame.xrows], [full_y & ~r for r in frame.yrows], yx=[full_x] * ny
    )
    forbidden = frame.relation(forbidden).rows
    forced = naive_transitive_close(list(forced))
    for rows in oracle_closed_relations(forced, forbidden):
        yield [r >> nx for r in rows[:nx]]


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


def naive_transitivity_witness(carrier, rows):
    """The first (a, b, c) over `carrier`, ordered by a, then b, then c in
    carrier order, with a R b and b R c but not a R c for the bit-rows
    `rows`, by the literal triple loop; None when R is transitive."""
    n = len(carrier)
    for i in range(n):
        for k in range(n):
            if not rows[i] >> k & 1:
                continue
            for j in range(n):
                if rows[k] >> j & 1 and not rows[i] >> j & 1:
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
        ok = True
        for i in range(n):
            if rows[i] & forbidden_rows[i]:
                ok = False
                break
            for k in range(n):
                if rows[i] >> k & 1 and rows[k] & ~rows[i]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            results.append(UnionPreorder(carrier, rows))
    return results


def oracle_rigidity_failures(pol, u):
    """The absent pairs of `u` whose closure into `u` is still a grade-3
    preorder for the polarity, found by closing each pair in and grading
    the result from scratch."""
    n = len(u.carrier)
    out = []
    for i in range(n):
        for j in range(n):
            if u.rows[i] >> j & 1:
                continue
            rows = [r | (1 << j if k == i else 0) for k, r in enumerate(u.rows)]
            enlarged = UnionPreorder(u.carrier, naive_transitive_close(rows))
            if is_n_preorder(pol, enlarged, 3).ok:
                out.append((u.carrier[i], u.carrier[j]))
    return out


def literal_bound(vecs, mask):
    """The greatest lower bound of the indices in `mask`, or None, by the
    literal loop over x <= y read as bit x of vecs[y]: for a poset's
    `cols` its meet, for its `rows` its join.  The empty mask asks for a
    top (a bottom)."""
    n = len(vecs)
    members = [m for m in range(n) if mask >> m & 1]
    lower = [x for x in range(n) if all(vecs[m] >> x & 1 for m in members)]
    return next((g for g in lower if all(vecs[g] >> x & 1 for x in lower)), None)


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
    order = sorted(src.elements, key=lambda e: len(src.down(e)))
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
                (not src.leq(p, e) or tgt.leq(pv, v))
                and (not src.leq(e, p) or tgt.leq(v, pv))
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
    over `Poset.leq`; None when the assignment is monotone."""
    for p in source.elements:
        for q in source.up(p):
            if not target.leq(assignment[p], assignment[q]):
                return p, q
    return None


def oracle_reflection_failure(f):
    """A pair (p, q) with f(p) <= f(q) but not p <= q, or None."""
    for p in f.source.elements:
        for q in f.source.elements:
            if f.target.leq(f(p), f(q)) and not f.source.leq(p, q):
                return p, q
    return None


def oracle_is_cut_stable(f):
    """For every q1 !<= q2 in the target there are p1 !<= p2 in the source
    with f^{-1}(up q1) inside up p1 and f^{-1}(down q2) inside down p2."""
    src, tgt = f.source, f.target
    for q1 in tgt.elements:
        for q2 in tgt.elements:
            if tgt.leq(q1, q2):
                continue
            pre_up = src.mask_of(p for p in src.elements if tgt.leq(q1, f(p)))
            pre_down = src.mask_of(p for p in src.elements if tgt.leq(f(p), q2))
            ok = False
            for i1, p1 in enumerate(src.elements):
                if pre_up & ~src.rows[i1]:
                    continue
                for i2, p2 in enumerate(src.elements):
                    if src.rows[i1] >> i2 & 1:
                        continue
                    if not pre_down & ~src.cols[i2]:
                        ok = True
                        break
                if ok:
                    break
            if not ok:
                return False
    return True


def oracle_is_complete_lattice(poset):
    """For a finite poset: nonempty, with a top, a bottom, and all
    binary meets and joins."""
    n = len(poset.elements)
    if n == 0:
        return False
    if poset.meet_index(0) is None or poset.join_index(0) is None:
        return False
    for i in range(n):
        for j in range(i + 1, n):
            m = (1 << i) | (1 << j)
            if poset.meet_index(m) is None or poset.join_index(m) is None:
                return False
    return True


def oracle_cross_order(morphism):
    """The first (y, x), x-major in carrier order, whose classes are
    ordered in the source quotient while the classes of their images are
    not ordered in the target quotient, by the literal loop over
    `Poset.leq`; None when the cross-side order is kept."""
    s = morphism.source
    qs = morphism.src_struct.quotient.poset
    qt = morphism.tgt_struct.quotient.poset
    ia, ib = morphism.src_struct.iota_x, morphism.src_struct.iota_y
    ja, jb = morphism.tgt_struct.iota_x, morphism.tgt_struct.iota_y
    for x in s.x.elements:
        for y in s.y.elements:
            if qs.leq(ib(y), ia(x)) and not qt.leq(
                jb(morphism.hy(y)), ja(morphism.hx(x))
            ):
                return y, x
    return None


def oracle_unreflected(morphism):
    """The first absent pair (x', y') of the morphism's target, in carrier
    order, that no absent source pair bounds, by the literal quantifier
    loops over both sides; None when every absent pair is reflected."""
    s, t = morphism.source, morphism.target
    hx, hy = morphism.hx, morphism.hy

    def reflects(xp, yp):
        for x in s.x.elements:
            if not all(
                s.x.leq(x, a) for a in s.x.elements if t.x.leq(xp, hx(a))
            ):
                continue
            for y in s.y.elements:
                if (x, y) in s.rel:
                    continue
                if not all(
                    s.y.leq(b, y) for b in s.y.elements if t.y.leq(hy(b), yp)
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


def oracle_extend_relation(ctx):
    """The saturation of the inner relation, pair by pair: x' is related
    to y' when some inner related pair brackets them through the side
    embeddings."""
    out = set()
    xo, yo = ctx.ix.target, ctx.iy.target
    for x, y in ctx.inner.rel:
        for a in xo.down(ctx.ix(x)):
            for b in yo.up(ctx.iy(y)):
                out.add((a, b))
    return frozenset(out)


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
    inner = ctx.inner
    nx, ny = len(inner.x), len(inner.y)
    nxo, nyo = len(ctx.ix.target), len(ctx.iy.target)
    if nx * ny > 12 or nxo * nyo > 16:
        raise CarrierTooLarge("relation lattices too large to enumerate")
    inner_pairs = [(a, b) for a in inner.x.elements for b in inner.y.elements]
    all_inner = [
        frozenset(p for k, p in enumerate(inner_pairs) if m >> k & 1)
        for m in range(1 << len(inner_pairs))
    ]
    xo, yo = ctx.ix.target, ctx.iy.target
    walked = _coherent_relations(ctx._outer_frame, [0] * nxo)
    coherent_outer = [
        frozenset(
            (xo.elements[i], yo.elements[j])
            for i, row in enumerate(rows)
            for j in _mask_iter(row)
        )
        # Rows from the last compare as their pair masks do.
        for rows in sorted(walked, key=lambda rows: rows[::-1])
    ]

    frame = inner._frame
    failures = []
    extended = {}
    for r in all_inner:
        c = ExtensionContext(inner.with_relation(r), ctx.ix, ctx.iy)
        rb = oracle_extend_relation(c)
        extended[r] = rb
        back = oracle_restrict_relation(c, rb)
        if not r <= back or (frame.mask_level(frame.mask(r), 0) is not None and r != back):
            failures.append(("unit", r))
    unit_holds = not failures

    counit_holds = True
    restricted = {}
    for s in coherent_outer:
        under = oracle_restrict_relation(ctx, s)
        restricted[s] = under
        c = ExtensionContext(inner.with_relation(under), ctx.ix, ctx.iy)
        if not oracle_extend_relation(c) <= s:
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
    return UnionPreorder.from_pairs(pol.carrier(), pairs)


# -- canonical relations and graded preorders, pair by pair ---------------


def oracle_realizable_meets(fr):
    """Per right element y of the frame, the mask of the left elements
    that are the meet of the left images above them of the base elements
    whose right image lies above y: `_expressible` once per right
    element."""
    left = [1 << xi for xi in fr.exi]
    return [
        _expressible(fr.xrows, fr.xcols, _union_of(left, m))
        for m in _preimages(fr.eyi, fr.ycols)
    ]


def oracle_realizable_joins(fr):
    """Per left element x, the mask of the right elements that are the
    join of the right images below them of the base elements whose left
    image lies below x."""
    right = [1 << yi for yi in fr.eyi]
    return [
        _expressible(fr.ycols, fr.yrows, _union_of(right, m))
        for m in _preimages(fr.exi, fr.xrows)
    ]


def _z_s_pairs(fr):
    """Pairs (y, x) forced below-left by a meet of images."""
    out = set()
    for j, real in enumerate(oracle_realizable_meets(fr)):
        for i, down in enumerate(fr.xcols):
            if real & down:
                out.add((fr.ys[j], fr.xs[i]))
    return frozenset(out)


def _z_t_pairs(fr):
    """Pairs (y, x) forced below-left by a join of images."""
    out = set()
    for i, real in enumerate(oracle_realizable_joins(fr)):
        for j, up in enumerate(fr.yrows):
            if real & up:
                out.add((fr.ys[j], fr.xs[i]))
    return frozenset(out)


def _z_x_pairs(fr, rx, ry):
    out = set()
    for i1, up in enumerate(fr.xrows):
        for i2 in _mask_iter(up):
            out.add((fr.xs[i1], fr.xs[i2]))
    for xi, yi in zip(fr.exi, fr.eyi):
        for i1 in _mask_iter(ry[yi]):
            for i2 in _mask_iter(fr.xrows[xi]):
                out.add((fr.xs[i1], fr.xs[i2]))
    return frozenset(out)


def _z_y_pairs(fr, rx, ry):
    out = set()
    for j1, up in enumerate(fr.yrows):
        for j2 in _mask_iter(up):
            out.add((fr.ys[j1], fr.ys[j2]))
    for xi, yi in zip(fr.exi, fr.eyi):
        for j1 in _mask_iter(fr.ycols[yi]):
            for j2 in _mask_iter(rx[xi]):
                out.add((fr.ys[j1], fr.ys[j2]))
    return frozenset(out)


def _z_yx_pairs(fr, rx, ry):
    out = set()
    for k1 in range(len(fr.ps)):
        for k2 in range(len(fr.ps)):
            if not rx[fr.exi[k1]] >> fr.eyi[k2] & 1:
                continue
            for j in _mask_iter(fr.ycols[fr.eyi[k1]]):
                for i in _mask_iter(fr.xrows[fr.exi[k2]]):
                    out.add((fr.ys[j], fr.xs[i]))
    return frozenset(out)


def _z_yx_alt_pairs(fr):
    """Pairs (y, x) such that every base element sent below y on the
    right is below every base element sent above x on the left."""
    out = set()
    for j, down in enumerate(fr.ycols):
        below = [k for k, yi in enumerate(fr.eyi) if down >> yi & 1]
        for i, up in enumerate(fr.xrows):
            above = [k for k, xi in enumerate(fr.exi) if up >> xi & 1]
            if all(fr.prows[k1] >> k2 & 1 for k1 in below for k2 in above):
                out.add((fr.ys[j], fr.xs[i]))
    return frozenset(out)


def _tagged(pol, x_pairs=(), y_pairs=(), cross_xy=(), cross_yx=()):
    pairs = []
    pairs.extend((tag_x(a), tag_x(b)) for a, b in x_pairs)
    pairs.extend((tag_y(a), tag_y(b)) for a, b in y_pairs)
    pairs.extend((tag_x(a), tag_y(b)) for a, b in cross_xy)
    pairs.extend((tag_y(a), tag_x(b)) for a, b in cross_yx)
    carrier = pol.carrier()
    diag = [(e, e) for e in carrier]
    return UnionPreorder.from_pairs(carrier, diag + pairs)


def oracle_canonical_relations(pol):
    """The named pair-sets of the polarity, keyed by name (`z_x`, `z_y`,
    `z_yx`, `z_yx_alt`, `z_s`, `z_t`), and the canonical relations built
    from them pair by pair, keyed by name: `r_zero`, `r_hat_m`, `r_hat_g`,
    and the pointwise relation `structure_of` compares with `r_hat_g`."""
    fr = _Frame(pol.base, pol.ex, pol.ey)
    rx, ry = fr.rows(fr.mask(pol.rel))
    sets = {
        "z_x": _z_x_pairs(fr, rx, ry),
        "z_y": _z_y_pairs(fr, rx, ry),
        "z_yx": _z_yx_pairs(fr, rx, ry),
        "z_yx_alt": _z_yx_alt_pairs(fr),
        "z_s": _z_s_pairs(fr),
        "z_t": _z_t_pairs(fr),
    }
    sides = pol.x.pairs(), pol.y.pairs()
    return sets, {
        name: _tagged(pol, *along, pol.rel, back)
        for name, along, back in (
            ("r_zero", sides, ()),
            ("r_hat_m", (sets["z_x"], sets["z_y"]), sets["z_yx"]),
            ("r_hat_g", sides, sets["z_s"] | sets["z_t"]),
            ("pointwise", sides, sets["z_yx_alt"]),
        )
    }


def _forced(fr, n):
    """The packed pairs every n-preorder holds besides those across, block
    by block: the side orders (P2, P3), from grade 1 each base element's
    two image pairs (commutation), and from grade 3 the pairs of
    `_z_s_pairs` and `_z_t_pairs` (P4, P5).  The reference for
    `_Frame.graded`."""
    xy, yx = [0] * len(fr.xs), [0] * len(fr.ys)
    if n >= 1:
        for xi, yi in zip(fr.exi, fr.eyi):
            xy[xi] |= 1 << yi
            yx[yi] |= 1 << xi
    if n >= 3:
        for b, a in _z_s_pairs(fr) | _z_t_pairs(fr):
            yx[fr.yindex[b]] |= 1 << fr.xindex[a]
    return _pack_blocks(len(fr.xs), fr.xrows, fr.yrows, xy, yx)


def _forbidden(fr, n):
    """The packed pairs no n-preorder holds besides those across: from
    grade 2, the pairs outside the side orders (reflectX, reflectY)."""
    if n < 2:
        return 0
    full_x, full_y = (1 << len(fr.xs)) - 1, (1 << len(fr.ys)) - 1
    return _pack_blocks(
        len(fr.xs),
        [full_x & ~r for r in fr.xrows],
        [full_y & ~r for r in fr.yrows],
        [0] * len(fr.xs),
        [0] * len(fr.ys),
    )


def oracle_is_n_preorder(pol, rel, n):
    """`is_n_preorder` clause by clause over element pairs, with the
    forced pairs of grade 3 taken from the pair-sets above."""
    if not 0 <= n <= 3:
        raise ValueError("grade must be between 0 and 3")
    carrier = pol.carrier()
    if rel.carrier != carrier:
        raise CarrierMismatch("relation carrier does not match the polarity")
    if not rel.is_reflexive():
        missing = next(
            e for i, e in enumerate(carrier) if not rel.rows[i] >> i & 1
        )
        return NPreorderVerdict(False, "reflexive", missing)
    tw = naive_transitivity_witness(rel.carrier, rel.rows)
    if tw is not None:
        return NPreorderVerdict(False, "transitive", tw)
    X, Y = pol.x, pol.y
    for a in X.elements:
        for b in Y.elements:
            if rel.rel(tag_x(a), tag_y(b)) != ((a, b) in pol.rel):
                return NPreorderVerdict(False, "P1", (a, b))
    for a1, a2 in X.pairs():
        if not rel.rel(tag_x(a1), tag_x(a2)):
            return NPreorderVerdict(False, "P2", (a1, a2))
    for b1, b2 in Y.pairs():
        if not rel.rel(tag_y(b1), tag_y(b2)):
            return NPreorderVerdict(False, "P3", (b1, b2))
    if n >= 1:
        for p in pol.base.elements:
            xi, yi = tag_x(pol.ex(p)), tag_y(pol.ey(p))
            if not (rel.rel(xi, yi) and rel.rel(yi, xi)):
                return NPreorderVerdict(False, "commutation", p)
    if n >= 2:
        for a1 in X.elements:
            for a2 in X.elements:
                if rel.rel(tag_x(a1), tag_x(a2)) and not X.leq(a1, a2):
                    return NPreorderVerdict(False, "reflectX", (a1, a2))
        for b1 in Y.elements:
            for b2 in Y.elements:
                if rel.rel(tag_y(b1), tag_y(b2)) and not Y.leq(b1, b2):
                    return NPreorderVerdict(False, "reflectY", (b1, b2))
    if n >= 3:
        fr = _Frame(pol.base, pol.ex, pol.ey)
        for b, a in sorted(_z_s_pairs(fr), key=repr):
            if not rel.rel(tag_y(b), tag_x(a)):
                return NPreorderVerdict(False, "P4", (b, a))
        for b, a in sorted(_z_t_pairs(fr), key=repr):
            if not rel.rel(tag_y(b), tag_x(a)):
                return NPreorderVerdict(False, "P5", (b, a))
    return NPreorderVerdict(True)


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
        for j in _mask_iter(cand[i] & ~used):
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
