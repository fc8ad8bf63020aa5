"""Ground-truth oracles: literal quantifier scans and naive enumeration.

Everything here is deliberately slow and obvious.  The fast routes in
`polab.polarity` are validated against these in the test suite.
"""

from __future__ import annotations

import itertools

from .errors import CarrierTooLarge
from .order import UnionPreorder, tag_x, tag_y, transitive_close


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
            for y1 in Y.elements
            for y2 in Y.elements
            for x in X.elements
            if Y.leq(y1, y2) and (x, y1) in rel and (x, y2) not in rel
        ),
        (True, None),
    )


def naive_conditions_c1_to_c6(pol):
    """The six subset-free conditions, written as literal quantifier loops."""
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
            for y1 in Y.elements
            for y2 in Y.elements
            if (pol.ex(p), y2) in pol.rel
            and Y.leq(y1, pol.ey(p))
            and not Y.leq(y1, y2)
        ),
        (True, None),
    )
    return out


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
    transitive_close(forced_rows)
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
