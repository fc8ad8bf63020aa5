"""Finite posets, monotone maps, order extensions, and completions.

Posets are stored as a tuple of element ids plus a dense bit-matrix:
``rows[i]`` has bit ``j`` set when element ``i`` is below element ``j``.
All quantifier-heavy checks work on these masks; the public API speaks
in element ids.  A poset's dual is its ``rows`` and ``cols`` swapped, so
each join-side check is its meet-side kernel run on the swapped arrays.
"""

from __future__ import annotations

from .errors import (
    AntisymmetryViolation,
    CarrierMismatch,
    CarrierTooLarge,
    DomainMismatch,
    LiftVerificationFailed,
    NotCutStable,
    NotEmbedding,
    NotMonotone,
    NotPreorder,
    UnknownId,
)


def transitive_close(rows):
    """Reflexive-transitive closure of a square bit-matrix (list of ints)."""
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


def _mask_iter(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _bound_index(vecs, mask):
    """Index of the meet of the indices in `mask` when `vecs` is a
    poset's `cols`, of their join when it is its `rows`; None when it does
    not exist.  The empty mask asks for a top (a bottom)."""
    bounds = (1 << len(vecs)) - 1
    for j in _mask_iter(mask):
        bounds &= vecs[j]
    for g in _mask_iter(bounds):
        if not bounds & ~vecs[g]:
            return g
    return None


def _expressible(up, down, image_mask):
    """Mask of the elements that are the meet of the elements of
    `image_mask` above them, for `up`/`down` a poset's `rows`/`cols`; with
    the two swapped, of those that are the join of the ones below them."""
    out = 0
    for q in range(len(up)):
        if _bound_index(down, image_mask & up[q]) == q:
            out |= 1 << q
    return out


class Poset:
    """A finite partial order."""

    __slots__ = ("elements", "index", "rows", "cols")

    def __init__(self, elements, rows):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise UnknownId("duplicate element ids")
        self.rows = tuple(rows)
        n = len(self.elements)
        if len(self.rows) != n:
            raise CarrierMismatch("matrix size does not match element count")
        cols = [0] * n
        for i in range(n):
            if not self.rows[i] >> i & 1:
                raise NotPreorder("relation is not reflexive", self.elements[i])
            for j in _mask_iter(self.rows[i]):
                if j >= n:
                    raise CarrierMismatch("matrix wider than element count")
                if i != j and self.rows[j] >> i & 1:
                    raise AntisymmetryViolation(
                        "elements %r and %r are mutually below each other"
                        % (self.elements[i], self.elements[j]),
                        (self.elements[i], self.elements[j]),
                    )
                cols[j] |= 1 << i
        for i in range(n):
            for k in _mask_iter(self.rows[i]):
                if self.rows[k] & ~self.rows[i]:
                    raise NotPreorder("relation is not transitive")
        self.cols = tuple(cols)

    @classmethod
    def from_pairs(cls, ids, pairs):
        """Build a poset from generating pairs; closes reflexively and
        transitively and rejects any antisymmetry violation."""
        ids = tuple(ids)
        index = {e: i for i, e in enumerate(ids)}
        if len(index) != len(ids):
            raise UnknownId("duplicate element ids")
        rows = [0] * len(ids)
        for a, b in pairs:
            if a not in index:
                raise UnknownId("unknown element %r" % (a,))
            if b not in index:
                raise UnknownId("unknown element %r" % (b,))
            rows[index[a]] |= 1 << index[b]
        transitive_close(rows)
        return cls(ids, rows)

    @classmethod
    def antichain(cls, ids):
        ids = tuple(ids)
        return cls(ids, [1 << i for i in range(len(ids))])

    @classmethod
    def chain(cls, ids):
        ids = tuple(ids)
        n = len(ids)
        return cls(ids, [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)])

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self.index

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.elements, self.rows))

    def __repr__(self):
        return "Poset(%d elements, %d pairs)" % (
            len(self.elements),
            sum(r.bit_count() for r in self.rows),
        )

    def _i(self, e):
        try:
            return self.index[e]
        except KeyError:
            raise UnknownId("unknown element %r" % (e,)) from None

    def leq(self, a, b):
        return self.rows[self._i(a)] >> self._i(b) & 1 == 1

    def lt(self, a, b):
        return a != b and self.leq(a, b)

    def up(self, a):
        """Elements above `a`, in carrier order."""
        return tuple(self.elements[j] for j in _mask_iter(self.rows[self._i(a)]))

    def down(self, a):
        return tuple(self.elements[j] for j in _mask_iter(self.cols[self._i(a)]))

    def pairs(self):
        return frozenset(
            (self.elements[i], self.elements[j])
            for i in range(len(self.elements))
            for j in _mask_iter(self.rows[i])
        )

    def mask_of(self, subset):
        m = 0
        for e in subset:
            m |= 1 << self._i(e)
        return m

    def elements_of(self, mask):
        return tuple(self.elements[i] for i in _mask_iter(mask))

    def meet_index(self, mask):
        """Index of the greatest lower bound of the indices in `mask`,
        or None when it does not exist.  The empty mask asks for a top."""
        return _bound_index(self.cols, mask)

    def join_index(self, mask):
        return _bound_index(self.rows, mask)

    def meet(self, subset):
        g = self.meet_index(self.mask_of(subset))
        return None if g is None else self.elements[g]

    def join(self, subset):
        g = self.join_index(self.mask_of(subset))
        return None if g is None else self.elements[g]

    def top(self):
        return self.meet(())

    def bottom(self):
        return self.join(())

    def is_complete_lattice(self):
        """For a finite poset: nonempty, with a top, a bottom, and all
        binary meets and joins."""
        n = len(self.elements)
        if n == 0:
            return False
        if self.meet_index(0) is None or self.join_index(0) is None:
            return False
        for i in range(n):
            for j in range(i + 1, n):
                m = (1 << i) | (1 << j)
                if self.meet_index(m) is None or self.join_index(m) is None:
                    return False
        return True

    def dual(self):
        return Poset(self.elements, list(self.cols))

    def covers(self):
        """Pairs (a, b) with a < b and nothing strictly between."""
        out = []
        n = len(self.elements)
        for i in range(n):
            strict_up = self.rows[i] & ~(1 << i)
            for j in _mask_iter(strict_up):
                between = strict_up & self.cols[j] & ~(1 << j)
                if not between:
                    out.append((self.elements[i], self.elements[j]))
        return out

    def restrict(self, keep):
        """Induced subposet on `keep`, in carrier order."""
        keep_ids = [e for e in self.elements if e in set(keep)]
        rows = []
        for a in keep_ids:
            r = 0
            for j, b in enumerate(keep_ids):
                if self.leq(a, b):
                    r |= 1 << j
            rows.append(r)
        return Poset(keep_ids, rows)

    def relabel(self, fn):
        return Poset([fn(e) for e in self.elements], list(self.rows))


class MonotoneMap:
    """A total order-preserving map between posets."""

    __slots__ = ("source", "target", "assignment")

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        self.assignment = dict(assignment)
        for p in source.elements:
            if p not in self.assignment:
                raise NotMonotone("map is not total: missing %r" % (p,))
            if self.assignment[p] not in target.index:
                raise UnknownId(
                    "image %r is not in the target" % (self.assignment[p],)
                )
        for p in source.elements:
            for q in source.up(p):
                if not target.leq(self.assignment[p], self.assignment[q]):
                    raise NotMonotone(
                        "%r <= %r but images are not ordered" % (p, q), (p, q)
                    )

    @classmethod
    def identity(cls, poset):
        return cls(poset, poset, {e: e for e in poset.elements})

    def __call__(self, p):
        try:
            return self.assignment[p]
        except KeyError:
            raise UnknownId("element %r is not in the domain" % (p,)) from None

    def __eq__(self, other):
        return (
            isinstance(other, MonotoneMap)
            and self.source == other.source
            and self.target == other.target
            and self.assignment == other.assignment
        )

    def __hash__(self):
        return hash(
            (self.source, self.target, tuple(sorted(self.assignment.items(), key=repr)))
        )

    def image(self):
        return tuple(dict.fromkeys(self.assignment[p] for p in self.source.elements))

    def is_surjective(self):
        return set(self.image()) == set(self.target.elements)

    def is_injective(self):
        return len(set(self.assignment.values())) == len(self.source.elements)

    def preimage(self, targets):
        wanted = set(targets)
        return tuple(p for p in self.source.elements if self.assignment[p] in wanted)


def compose(outer, inner):
    """outer after inner."""
    if inner.target != outer.source:
        raise DomainMismatch("codomain of inner map differs from domain of outer")
    return MonotoneMap(
        inner.source,
        outer.target,
        {p: outer(inner(p)) for p in inner.source.elements},
    )


def _index_image(f):
    """The map `f` as a list: source index to target index."""
    return [f.target.index[f(p)] for p in f.source.elements]


def _image_mask(e):
    """The image of an extension, as a mask over its target."""
    return e.target.mask_of(e.map.image())


def _reflection_failure(f):
    """A pair (p, q) with f(p) <= f(q) but not p <= q, or None."""
    for p in f.source.elements:
        for q in f.source.elements:
            if f.target.leq(f(p), f(q)) and not f.source.leq(p, q):
                return p, q
    return None


def is_order_embedding(f):
    """p <= q iff f(p) <= f(q); monotonicity is already guaranteed."""
    return _reflection_failure(f) is None


class Extension:
    """An order embedding e : P -> Q regarded as an extension of P."""

    __slots__ = ("map",)

    def __init__(self, map):
        if not is_order_embedding(map):
            raise NotEmbedding("extension map must be an order embedding")
        self.map = map

    @classmethod
    def identity(cls, poset):
        return cls(MonotoneMap.identity(poset))

    @classmethod
    def inclusion(cls, base, target):
        return cls(MonotoneMap(base, target, {e: e for e in base.elements}))

    def __call__(self, p):
        return self.map(p)

    def __eq__(self, other):
        return isinstance(other, Extension) and self.map == other.map

    def __hash__(self):
        return hash(self.map)

    @property
    def base(self):
        return self.map.source

    @property
    def target(self):
        return self.map.target

    def compose(self, outer):
        """Extend further along another extension of the target."""
        return Extension(compose(outer.map, self.map))


def is_meet_extension(e):
    """Every target element is the meet of the images above it."""
    t = e.target
    return _expressible(t.rows, t.cols, _image_mask(e)) == (1 << len(t)) - 1


def is_join_extension(e):
    t = e.target
    return _expressible(t.cols, t.rows, _image_mask(e)) == (1 << len(t)) - 1


def is_completion(e):
    return e.target.is_complete_lattice()


def is_dense(e):
    """Every target element is a join of meets of images and a meet of
    joins of images.

    q is a meet of some set of images iff it is the meet of all images
    above it, so no subset enumeration is needed.
    """
    t = e.target
    image = _image_mask(e)
    full = (1 << len(t)) - 1
    meets = _expressible(t.rows, t.cols, image)
    joins = _expressible(t.cols, t.rows, image)
    return (
        _expressible(t.cols, t.rows, meets) == full
        and _expressible(t.rows, t.cols, joins) == full
    )


def is_delta1(e):
    return is_completion(e) and is_dense(e)


def _intersection_lattice(full, generators):
    """The intersections of the bit-masks in `generators` (the empty
    intersection giving `full`), ordered by inclusion; each mask is used
    directly as its element id."""
    closed = {full}
    frontier = [full]
    while frontier:
        nxt = []
        for c in frontier:
            for m in generators:
                d = c & m
                if d not in closed:
                    closed.add(d)
                    nxt.append(d)
        frontier = nxt
    ordered = sorted(closed)
    idx = {c: i for i, c in enumerate(ordered)}
    rows = []
    for c in ordered:
        r = 0
        for d in ordered:
            if c & ~d == 0:
                r |= 1 << idx[d]
        rows.append(r)
    return Poset(ordered, rows)


def macneille(poset):
    """The cut completion of a finite poset.

    Closed sets are exactly the intersections of principal down-sets,
    each a bit-mask over the base carrier.
    """
    lattice = _intersection_lattice((1 << len(poset)) - 1, poset.cols)
    assignment = {p: poset.cols[i] for i, p in enumerate(poset.elements)}
    return Extension(MonotoneMap(poset, lattice, assignment))


def _preserves_bounds(f, src, tgt, limit):
    """Whether the index map `f` (a list, as `_index_image` gives) sends
    the meet of every subset of its source that has one to the meet of
    the images, for `src`/`tgt` the `cols` of source and target; given
    their `rows`, the same for joins.  Scans all subsets, so sources past
    `limit` elements are refused."""
    n = len(src)
    if n > limit:
        raise CarrierTooLarge("preservation scan gated at %d elements" % limit)
    for mask in range(1 << n):
        g = _bound_index(src, mask)
        if g is None:
            continue
        images = 0
        for i in _mask_iter(mask):
            images |= 1 << f[i]
        if _bound_index(tgt, images) != f[g]:
            return False
    return True


def is_cut_stable(f):
    """For every q1 !<= q2 in the target there are p1 !<= p2 in the source
    with f^{-1}(up q1) inside up p1 and f^{-1}(down q2) inside down p2."""
    src, tgt = f.source, f.target
    for q1 in tgt.elements:
        for q2 in tgt.elements:
            if tgt.leq(q1, q2):
                continue
            pre_up = src.mask_of(
                p for p in src.elements if tgt.leq(q1, f(p))
            )
            pre_down = src.mask_of(
                p for p in src.elements if tgt.leq(f(p), q2)
            )
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


def macneille_lift(f):
    """Lift a cut-stable map to a complete homomorphism between the cut
    completions of its domain and codomain.  The lift sends a cut c to
    the join of the images of base elements below c; the complete-hom
    laws and the commuting square are verified and failures raise."""
    if not is_cut_stable(f):
        raise NotCutStable("map is not cut-stable")
    e_src = macneille(f.source)
    e_tgt = macneille(f.target)
    dm_src, dm_tgt = e_src.target, e_tgt.target
    assignment = {}
    for c in dm_src.elements:
        below = [
            e_tgt(f(p)) for p in f.source.elements if dm_src.leq(e_src(p), c)
        ]
        assignment[c] = dm_tgt.join(below)
    lift = MonotoneMap(dm_src, dm_tgt, assignment)
    for p in f.source.elements:
        if lift(e_src(p)) != e_tgt(f(p)):
            raise LiftVerificationFailed(
                "lift does not commute with the completion embeddings", p
            )
    if lift(dm_src.top()) != dm_tgt.top():
        raise LiftVerificationFailed("lift does not preserve the top")
    if lift(dm_src.bottom()) != dm_tgt.bottom():
        raise LiftVerificationFailed("lift does not preserve the bottom")
    for a in dm_src.elements:
        for b in dm_src.elements:
            if lift(dm_src.meet([a, b])) != dm_tgt.meet([lift(a), lift(b)]):
                raise LiftVerificationFailed("lift does not preserve meets", (a, b))
            if lift(dm_src.join([a, b])) != dm_tgt.join([lift(a), lift(b)]):
                raise LiftVerificationFailed("lift does not preserve joins", (a, b))
    return lift


def check_galois_connection(alpha, beta):
    """alpha(p) <= q iff p <= beta(q), for alpha : P -> Q and beta : Q -> P."""
    if alpha.source != beta.target or alpha.target != beta.source:
        raise DomainMismatch("maps do not run between the same pair of posets")
    for p in alpha.source.elements:
        for q in alpha.target.elements:
            if alpha.target.leq(alpha(p), q) != alpha.source.leq(p, beta(q)):
                return False
    return True


def _iso_candidates(p1, p2):
    """Per-element candidate masks for an order isomorphism p1 -> p2,
    pruned by up/down degrees."""
    if len(p1) != len(p2):
        return None
    degs2 = {}
    for j in range(len(p2)):
        key = (p2.rows[j].bit_count(), p2.cols[j].bit_count())
        degs2.setdefault(key, 0)
        degs2[key] |= 1 << j
    cand = []
    for i in range(len(p1)):
        key = (p1.rows[i].bit_count(), p1.cols[i].bit_count())
        m = degs2.get(key, 0)
        if not m:
            return None
        cand.append(m)
    return cand


def order_isomorphisms(p1, p2, forced=None):
    """Yield order isomorphisms p1 -> p2 as MonotoneMaps, lexicographically
    by carrier order.  `forced` optionally pins images of some elements."""
    n = len(p1)
    cand = _iso_candidates(p1, p2)
    if cand is None:
        return
    if forced:
        for e, im in forced.items():
            i = p1.index[e]
            if im not in p2.index:
                return
            cand[i] &= 1 << p2.index[im]

    def extend(i, used, partial):
        if i == n:
            yield list(partial)
            return
        for j in _mask_iter(cand[i] & ~used):
            ok = True
            for k in range(i):
                jk = partial[k]
                if (p1.rows[i] >> k & 1) != (p2.rows[j] >> jk & 1):
                    ok = False
                    break
                if (p1.rows[k] >> i & 1) != (p2.rows[jk] >> j & 1):
                    ok = False
                    break
            if ok:
                partial.append(j)
                yield from extend(i + 1, used | 1 << j, partial)
                partial.pop()

    for sol in extend(0, 0, []):
        yield MonotoneMap(
            p1, p2, {p1.elements[i]: p2.elements[sol[i]] for i in range(n)}
        )


def extensions_isomorphic(e1, e2, fix_base=True):
    """Search for an isomorphism of extensions: an order iso g_Q between
    the targets (together with an iso g_P of the bases, identity when
    `fix_base`) commuting with the embeddings.  Returns (g_P, g_Q) or None.
    """
    if fix_base:
        if e1.base != e2.base:
            raise CarrierMismatch("extensions do not share a base poset")
        base_isos = [MonotoneMap.identity(e1.base)]
    else:
        base_isos = order_isomorphisms(e1.base, e2.base)
    for g_p in base_isos:
        forced = {e1(p): e2(g_p(p)) for p in e1.base.elements}
        consistent = True
        for p in e1.base.elements:
            if forced.get(e1(p)) != e2(g_p(p)):
                consistent = False
                break
        if not consistent:
            continue
        for g_q in order_isomorphisms(e1.target, e2.target, forced=forced):
            return g_p, g_q
    return None


X_SIDE = "X"
Y_SIDE = "Y"


def tag_x(e):
    return (X_SIDE, e)


def tag_y(e):
    return (Y_SIDE, e)


class UnionPreorder:
    """A binary relation on a two-sided tagged carrier.

    The carrier lists X-side elements first, then Y-side, each tagged
    with its side so the two may share raw ids.  The relation is held as
    a bit-matrix and need not be a preorder; `is_preorder` says whether
    it is, and `quotient` demands it.
    """

    __slots__ = ("carrier", "index", "rows")

    def __init__(self, carrier, rows):
        self.carrier = tuple(carrier)
        self.index = {e: i for i, e in enumerate(self.carrier)}
        if len(self.index) != len(self.carrier):
            raise UnknownId("duplicate carrier elements")
        self.rows = tuple(rows)
        if len(self.rows) != len(self.carrier):
            raise CarrierMismatch("matrix size does not match carrier")

    @classmethod
    def from_pairs(cls, carrier, pairs):
        carrier = tuple(carrier)
        index = {e: i for i, e in enumerate(carrier)}
        rows = [0] * len(carrier)
        for a, b in pairs:
            if a not in index or b not in index:
                raise UnknownId("pair (%r, %r) is not on the carrier" % (a, b))
            rows[index[a]] |= 1 << index[b]
        return cls(carrier, rows)

    def __eq__(self, other):
        return (
            isinstance(other, UnionPreorder)
            and self.carrier == other.carrier
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.carrier, self.rows))

    def __len__(self):
        return len(self.carrier)

    def __repr__(self):
        return "UnionPreorder(%d elements, %d pairs)" % (
            len(self.carrier),
            sum(r.bit_count() for r in self.rows),
        )

    def rel(self, a, b):
        return self.rows[self.index[a]] >> self.index[b] & 1 == 1

    def pairs(self):
        return frozenset(
            (self.carrier[i], self.carrier[j])
            for i in range(len(self.carrier))
            for j in _mask_iter(self.rows[i])
        )

    def x_elements(self):
        return tuple(e for e in self.carrier if e[0] == X_SIDE)

    def y_elements(self):
        return tuple(e for e in self.carrier if e[0] == Y_SIDE)

    def subset_of(self, other):
        if self.carrier != other.carrier:
            raise CarrierMismatch("relations live on different carriers")
        return all(r & ~s == 0 for r, s in zip(self.rows, other.rows))

    def intersect(self, other):
        if self.carrier != other.carrier:
            raise CarrierMismatch("relations live on different carriers")
        return UnionPreorder(
            self.carrier, [r & s for r, s in zip(self.rows, other.rows)]
        )

    def is_reflexive(self):
        return all(self.rows[i] >> i & 1 for i in range(len(self.carrier)))

    def transitivity_witness(self):
        for i in range(len(self.carrier)):
            for k in _mask_iter(self.rows[i]):
                extra = self.rows[k] & ~self.rows[i]
                if extra:
                    j = next(_mask_iter(extra))
                    return (self.carrier[i], self.carrier[k], self.carrier[j])
        return None

    def is_transitive(self):
        return self.transitivity_witness() is None

    def is_preorder(self):
        return self.is_reflexive() and self.is_transitive()

    def closed(self):
        return UnionPreorder(self.carrier, transitive_close(list(self.rows)))

    def with_pairs(self, extra):
        rows = list(self.rows)
        for a, b in extra:
            rows[self.index[a]] |= 1 << self.index[b]
        return UnionPreorder(self.carrier, rows)

    def restrict_side(self, side):
        """The induced relation on one side, as a poset when antisymmetric."""
        keep = [e for e in self.carrier if e[0] == side]
        rows = []
        for a in keep:
            r = 0
            for j, b in enumerate(keep):
                if self.rel(a, b):
                    r |= 1 << j
            rows.append(r)
        return keep, rows

    def quotient(self):
        if not self.is_preorder():
            raise NotPreorder(
                "cannot quotient a relation that is not a preorder",
                self.transitivity_witness(),
            )
        return Quotient(self)


class Quotient:
    """The poset of equivalence classes of a preorder on a tagged carrier.

    Each class is represented by its least-indexed member; `projection`
    sends a carrier element to its representative.
    """

    __slots__ = ("source", "poset", "projection", "classes")

    def __init__(self, source):
        self.source = source
        n = len(source.carrier)
        rep_of = {}
        reps = []
        classes = {}
        for i in range(n):
            e = source.carrier[i]
            found = None
            for r in reps:
                ri = source.index[r]
                if source.rows[i] >> ri & 1 and source.rows[ri] >> i & 1:
                    found = r
                    break
            if found is None:
                reps.append(e)
                classes[e] = [e]
                rep_of[e] = e
            else:
                classes[found].append(e)
                rep_of[e] = found
        rows = []
        for a in reps:
            r = 0
            ia = source.index[a]
            for j, b in enumerate(reps):
                if source.rows[ia] >> source.index[b] & 1:
                    r |= 1 << j
            rows.append(r)
        self.source = source
        self.poset = Poset(reps, rows)
        self.projection = rep_of
        self.classes = {r: tuple(members) for r, members in classes.items()}

    def project(self, e):
        return self.projection[e]
