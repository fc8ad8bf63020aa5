"""Finite posets, monotone maps, order extensions, and completions.

Posets are stored as a tuple of element ids plus a dense bit-matrix:
``rows[i]`` has bit ``j`` set when element ``i`` is below element ``j``.
All quantifier-heavy checks work on these masks; the public API speaks
in element ids.

The kernels pack a matrix into one integer, row i at bits i·n to
i·n + n - 1 (`_pack`, `_unpack`).  On square matrices: the closure
`_close` (behind `Poset.from_pairs` and `UnionPreorder.closed`), the
transitivity verdict `_packed_transitive` (behind `Poset(elements,
rows)` and `UnionPreorder.is_transitive`, so behind `is_n_preorder`,
`structure_of` and `Quotient` too), the transpose `_packed_transpose`,
the relation walk `_closed_relations`, the rigidity test `_loose_pairs`
and a polarity's one-step saturation `_saturate`.  Over a polarity's
carrier, `_back_block` lays a pair mask out as the right-to-left block.
`_PairLanes` works on the pair masks of relations between two posets.
Shifting right by k and masking with the bits i·n of every row i gives
the rows that hold k, at their row offsets; multiplying that by an
n-bit row copies it onto each of them, with no carries.  So one
Warshall pivot is one product, and so is each base element's step of
`_saturate`.  A `UnionPreorder` stores only its packed matrix.  A failed
verdict is explained by a row walk naming the first witness in carrier
order (`_transitivity_failure`), so witnesses and messages do not
depend on the packing.

Two names stay only because `bench/tracer.py` wraps them, and no route
calls them: `transitive_close` here and the `coherence_level` import of
`polab.extend`.  They go when the benchmark stops wrapping them.

A poset's dual is its ``rows`` and ``cols`` swapped.  Each kernel with
a join side takes the poset, or a map, and a `join` flag, and swaps the
two itself.  The meet of a set is the element whose down-set is the
set's common lower bounds, so a poset keeps, built on first use, its
down-sets and its up-sets each keyed to its element (`Poset._downs`,
`Poset._ups`): `meet_index`, `join_index`, `is_complete_lattice` and
`_complete_hom_failure` read a bound with one AND per member and one
lookup.  Whether a monotone map keeps every existing meet or join is
decided in polynomial time (`_bounds_failure`), with no subset scan and
no size gate, each candidate bound one compare of common lower bounds.
A monotone map keeps its index map and, per target element, the mask of
the source elements sent above it (`MonotoneMap.pre_up`), and builds on
first use the mask of those sent below it (`MonotoneMap.pre_down`);
monotonicity, order reflection and cut stability are row tests on those
masks.

Two trust boundaries run through this module.  The public constructors
(`Poset(elements, rows)`, `Poset.from_pairs`, `antichain`) serve user
input and check reflexivity, antisymmetry and transitivity.
A poset derived from trusted ones (`dual`, `relabel`, `restrict`, the
inclusion orders `_inclusion` gives the cut and concept lattices, a
`Quotient`'s classes) is built by `Poset._derived` with its `rows` and
`cols` computed together and is not checked again; only the ids are,
where they may repeat.  `Poset._derived` is called in this module only.
Likewise `MonotoneMap(source, target, assignment)` checks the labels of
a parsed or user-supplied map and its monotonicity, while
`MonotoneMap._of_idx(source, target, idx)`, for a map derived from held
maps (a composite, a lift, a cut or quotient map), tests monotonicity
only.  `UnionPreorder._of_packed` takes a packed matrix on a carrier and
index its caller holds, and checks nothing.
"""

from __future__ import annotations

import functools
import operator
import weakref

from .errors import (
    AntisymmetryViolation,
    CarrierMismatch,
    DomainMismatch,
    LawViolation,
    LiftVerificationFailed,
    NotCompleteLattice,
    NotCutStable,
    NotEmbedding,
    NotMonotone,
    NotPreorder,
    UnknownId,
)


class cached_property:
    """A value an object builds on first use and keeps, as with
    `functools.cached_property` but without the lock that takes on
    Python 3.11: the first read writes the value to the instance
    `__dict__`, where every later read finds it before this descriptor."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def kept(fn):
    """`fn` of one argument, each result kept in `memo`, a
    `weakref.WeakKeyDictionary`, while its argument lives, and found by an
    equal argument.  Errors are not kept.  A kept value must not refer to
    its argument, or the argument could never die."""
    memo = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def lookup(arg):
        value = memo.get(arg, memo)
        if value is memo:
            value = memo[arg] = fn(arg)
        return value

    lookup.memo = memo
    return lookup


@functools.lru_cache(maxsize=64)
def _lanes(n):
    """For n-row matrices packed by `_pack`: the mask with bit i·n set
    for every row i, one row of ones, the diagonal, and the format spec
    of the packed matrix's n² binary digits."""
    ones = diagonal = 0
    for i in range(n):
        ones |= 1 << i * n
        diagonal |= 1 << i * n + i
    return ones, (1 << n) - 1, diagonal, "0%db" % (n * n)


def _pack(rows, n):
    """The n bit-rows, each inside n bits, as one integer: row i at bits
    i·n to i·n + n - 1."""
    m = 0
    for r in reversed(rows):
        m = m << n | r
    return m


def _unpack(m, n):
    """The n bit-rows, each of n bits, of a packed matrix."""
    full = (1 << n) - 1
    return [m >> i * n & full for i in range(n)]


def _packed_transitive(m, n):
    """Whether the packed n-row matrix is transitive: for each pivot k,
    one product copies row k onto every row holding k, which must add
    nothing.  Rows hold n bits, so the copies never overlap or carry."""
    ones, full, _, _ = _lanes(n)
    outside = ~m
    for k in range(n):
        if (m >> k & ones) * (m >> k * n & full) & outside:
            return False
    return True


def _close(m, n):
    """The reflexive-transitive closure of the packed n-row matrix `m`:
    Warshall's pivots, each one product."""
    ones, full, diagonal, _ = _lanes(n)
    m |= diagonal
    for k in range(n):
        m |= (m >> k & ones) * (m >> k * n & full)
    return m


def _packed_transpose(m, n):
    """The transpose of the packed n-row matrix `m`.  Its binary digits,
    row n - 1 first and each row high bit first, read with stride n from
    offset k give column n - 1 - k the same way, so joined they are the
    packed transpose."""
    digits = format(m, _lanes(n)[3])
    return int("".join([digits[k::n] for k in range(n)]) or "0", 2)


def transitive_close(rows):
    """Reflexive-transitive closure of a square bit-matrix (list of ints),
    in place (`_close`)."""
    n = len(rows)
    rows[:] = _unpack(_close(_pack(rows, n), n), n)
    return rows


def _spread(mask, width):
    """`mask` with each set bit i moved to bit i·width."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << (low.bit_length() - 1) * width
        mask ^= low
    return out


class _PairLanes:
    """Relations between posets X and Y as pair masks, the pair (x_i, y_j)
    at bit i·|Y| + j, from X's `cols`, Y's `rows` and pivot pairs (i, j).
    In a down-set of X × Yᵒᵖ the lanes below x_k hold lane k and the
    lanes holding y_k hold the elements above y_k (`steps`): one product
    per element that is not minimal, resp. maximal.  Each pivot
    (i, j) gives lane i to the lanes holding y_j.  Of a pivot's column,
    `below` holds the lanes below lane i, `beside_column` the rest; of its
    lane, `above` the columns above j, `beside_lane` the rest; `beside` is both."""

    __slots__ = (
        "ny", "full", "ones", "spreads", "steps", "pivots",
        "pivot_bits", "below", "beside_column", "above", "beside_lane", "beside",
    )

    def __init__(self, xcols, yrows, pivots):
        ny = self.ny = len(yrows)
        full = self.full = (1 << ny) - 1
        ones = self.ones = _spread((1 << len(xcols)) - 1, ny)
        spreads = self.spreads = [_spread(c, ny) for c in xcols]
        # Each step (c, shift, lanes): m gains c times m >> shift & lanes.
        self.steps = [(s, k * ny, full) for k, s in enumerate(spreads) if s != 1 << k * ny]
        self.steps += [(up, k, ones) for k, up in enumerate(yrows) if up != 1 << k]
        self.pivots, bits, below, column, above, lane = [], 0, 0, 0, 0, 0
        for i, j in pivots:
            self.pivots.append((j, i * ny))
            bits |= 1 << i * ny + j
            below |= spreads[i] << j
            column |= (ones ^ spreads[i]) << j
            above |= yrows[j] << i * ny
            lane |= (full ^ yrows[j]) << i * ny
        self.pivot_bits, self.below, self.above = bits, below, above
        self.beside_column, self.beside_lane, self.beside = column, lane, column | lane

    def spread(self, mask):
        """The lanes of the elements of X at the bits of `mask`."""
        return _spread(mask, self.ny)

    def down_close(self, m):
        """The down-closure of `m` in X × Yᵒᵖ, the orders being transitive."""
        for c, shift, lanes in self.steps:
            m |= c * (m >> shift & lanes)
        return m

    def pivot_close(self, m):
        """`m` after each pivot (i, j) gives lane i to the lanes holding y_j."""
        ones, full = self.ones, self.full
        for j, shift in self.pivots:
            m |= (m >> j & ones) * (m >> shift & full)
        return m


def _closed_relations(forced, forbidden, n):
    """The reflexive and transitive relations on n elements that contain
    the packed n-row matrix `forced` and avoid the packed `forbidden`,
    each as a packed matrix.

    The walk visits the pairs in row-major order, pair (i, j) at bit
    i·n + j of the packed matrices of `_pack`.  For each open pair, one
    neither held nor barred, it first leaves the pair out, barring it
    for the rest of the branch, and then takes it in with its closure
    ↓i × ↑j: row i and every row holding i gain j and row j.  On the
    packed state a take is one product, the barred test one AND, and the
    open pairs are the clear bits of held | barred above the last pair.
    A take that meets a barred pair dies at once; every other branch
    ends in a result, so results are a polynomial number of such steps
    apart, each a constant number of n²-bit integer operations.  The
    stack holds the takes still to be tried; the first is the closure of
    `forced`.
    """
    ones, full, _, _ = _lanes(n)
    everything = (1 << n * n) - 1
    stack = [(_close(forced, n), forbidden, -1)]
    while stack:
        held, barred, p = stack.pop()
        if p >= 0:
            i, j = divmod(p, n)
            below = held >> i & ones | 1 << i * n
            held |= below * (held >> j * n & full | 1 << j)
        if held & barred:
            continue
        free = (everything >> p + 1 << p + 1) & ~(held | barred)
        while free:
            low = free & -free
            stack.append((held, barred, low.bit_length() - 1))
            barred |= low
            free ^= low
        yield held


def _pack_blocks(nx, xx, yy, xy, yx):
    """The packed matrix over a carrier of `nx` left elements and then
    the right ones, from its left, right, left-to-right and
    right-to-left blocks as bit-rows."""
    n, m = nx + len(yy), 0
    for a, b in zip(reversed(yx), reversed(yy)):
        m = m << n | a | b << nx
    for a, b in zip(reversed(xx), reversed(xy)):
        m = m << n | a | b << nx
    return m


@functools.lru_cache(maxsize=256)
def _carrier_blocks(nx, ny):
    """The packed left, right and left-to-right blocks over a carrier of
    `nx` left and then `ny` right elements."""
    fx, fy = (1 << nx) - 1, (1 << ny) - 1
    return (
        _pack_blocks(nx, [fx] * nx, [0] * ny, [0] * nx, [0] * ny),
        _pack_blocks(nx, [0] * nx, [fy] * ny, [0] * nx, [0] * ny),
        _pack_blocks(nx, [0] * nx, [0] * ny, [fy] * nx, [0] * ny),
    )


def _back_block(m, nx, ny):
    """The pair mask `m` over X × Y as the packed right-to-left block over
    the carrier: read with stride ny from offset k, the binary digits of m
    are column ny - 1 - k from x_{nx-1} down, a row of that block."""
    digits = format(m, "0%db" % (nx * ny))
    rows = ["0" * ny + digits[k::ny] for k in range(ny)]
    return int("".join(rows) or "0", 2) << nx * (nx + ny)


def _saturate(r, nx, ny, exi, eyi):
    """The one-step saturation of the packed `r` (side orders and pairs
    across, `nx` and `ny` elements) through base images `exi`, `eyi`: each
    gives the rows holding ey(k) the row of ex(k), kept on the sides; back,
    y below ey(k) gains the left block of ex(k) so gained."""
    n, sides, back = nx + ny, 0, 0
    ones, full, _, _ = _lanes(n)
    for i, j in zip(exi, eyi):
        sides |= (r >> nx + j & ones) * (r >> i * n & full)
    below_y, left = ones >> nx * n << nx * n, (1 << nx) - 1
    for i, j in zip(exi, eyi):
        back |= (r >> nx + j & below_y) * (sides >> i * n & left)
    xx, yy, _ = _carrier_blocks(nx, ny)
    return r | sides & (xx | yy) | back


def _loose_pairs(u, forbidden, n):
    """The packed pairs (i, j) outside the packed preorder `u` whose
    closure into it, ↓i × ↑j, holds none of the packed `forbidden`: no k
    below i is forbidden an l above j.  Two relational products, each one
    product per pivot: Uᵀ;F gives row i the pairs forbidden below i, and
    ;Uᵀ then every j below one of them."""
    ones, full, _, _ = _lanes(n)
    ut = _packed_transpose(u, n)
    below = blocked = 0
    for k in range(n):
        below |= (ut >> k & ones) * (forbidden >> k * n & full)
    for k in range(n):
        blocked |= (below >> k & ones) * (ut >> k * n & full)
    return (1 << n * n) - 1 & ~(u | blocked)


def _transpose(rows, n):
    """Bit-rows of the transposed relation, with `n` rows: of a target's
    `cols` gathered at a map's `idx`, row t holds the x with t <= f(x)."""
    out = [0] * n
    for i, r in enumerate(rows):
        bit = 1 << i
        while r:
            low = r & -r
            out[low.bit_length() - 1] |= bit
            r ^= low
    return out


def _union_of(rows, mask):
    """The union of the rows at the bits of `mask`; for rows of single
    bits, `mask` with each bit i moved to the bit of `rows[i]`."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _common(vecs, mask, full):
    """The AND of the masks in `vecs` at the bits of `mask`; `full` for
    the empty mask."""
    while mask:
        low = mask & -mask
        full &= vecs[low.bit_length() - 1]
        mask ^= low
    return full


def _low_index(mask):
    """Index of the lowest set bit of a non-empty mask."""
    return (mask & -mask).bit_length() - 1


def _mask_iter(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _expressible(poset, image_mask, join=False):
    """Mask of the elements of `poset` that are the meet of the elements
    of `image_mask` above them; with `join`, of those that are the join
    of the ones below them.

    q is that meet iff the common lower bounds of the images above q are
    exactly the elements below q."""
    up, down = (poset.cols, poset.rows) if join else (poset.rows, poset.cols)
    full = (1 << len(up)) - 1
    out = 0
    for q, row in enumerate(up):
        m = image_mask & row
        bounds = full
        while m:
            low = m & -m
            bounds &= down[low.bit_length() - 1]
            m ^= low
        if bounds == down[q]:
            out |= 1 << q
    return out


def _transitivity_failure(carrier, rows):
    """The first (a, b, c), in carrier order, with a R b and b R c but not
    a R c for the bit-rows `rows`, or None: per row a, the first b whose
    row holds what a's lacks, and the lowest such c."""
    for i, row in enumerate(rows):
        for k in _mask_iter(row):
            extra = rows[k] & ~row
            if extra:
                return carrier[i], carrier[k], carrier[_low_index(extra)]
    return None


def _order_failure(elements, rows):
    """Raise the first failure of the matrix `rows` as a partial order on
    `elements`: row by row, reflexivity, then per set bit its width and
    antisymmetry; transitivity, with its first witness
    (`_transitivity_failure`), last."""
    n = len(elements)
    for i in range(n):
        if not rows[i] >> i & 1:
            raise NotPreorder("relation is not reflexive", elements[i])
        for j in _mask_iter(rows[i]):
            if j >= n:
                raise CarrierMismatch("matrix wider than element count")
            if i != j and rows[j] >> i & 1:
                raise AntisymmetryViolation(
                    "elements %r and %r are mutually below each other"
                    % (elements[i], elements[j]),
                    (elements[i], elements[j]),
                )
    raise NotPreorder("relation is not transitive", _transitivity_failure(elements, rows))


class Poset:
    """A finite partial order."""

    __slots__ = ("elements", "index", "rows", "cols", "__dict__")

    def __init__(self, elements, rows):
        self.elements = tuple(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise UnknownId("duplicate element ids")
        self.rows = rows = tuple(rows)
        n = len(self.elements)
        if len(rows) != n:
            raise CarrierMismatch("matrix size does not match element count")
        # The packed tests only give the verdict; `_order_failure` names
        # the first failure, in the order the laws are stated.
        if rows and max(rows) >> n:
            _order_failure(self.elements, rows)
        m = _pack(rows, n)
        mt = _packed_transpose(m, n)
        # Reflexive and antisymmetric together: R ∩ Rᵀ is the diagonal.
        if m & mt != _lanes(n)[2] or not _packed_transitive(m, n):
            _order_failure(self.elements, rows)
        self.cols = tuple(_unpack(mt, n))

    @classmethod
    def _derived(cls, elements, rows, cols, index=None):
        """A poset derived from trusted ones, its `rows` and `cols`
        computed together: no order law is checked again.  Without
        `index` the ids are indexed and checked for duplicates."""
        self = cls.__new__(cls)
        self.elements = tuple(elements)
        if index is None:
            index = {e: i for i, e in enumerate(self.elements)}
            if len(index) != len(self.elements):
                raise UnknownId("duplicate element ids")
        self.index = index
        self.rows = tuple(rows)
        self.cols = tuple(cols)
        return self

    @classmethod
    def from_pairs(cls, ids, pairs):
        """Build a poset from generating pairs.  The pairs are packed and
        closed once (`_close`); the closure is reflexive and transitive by
        construction, so antisymmetry, one AND with the transpose, is all
        that is left to check.  The ids are indexed once, and the rows and
        columns go to `_derived`."""
        ids = tuple(ids)
        index = {e: i for i, e in enumerate(ids)}
        n = len(ids)
        if len(index) != n:
            raise UnknownId("duplicate element ids")
        m = 0
        try:
            for a, b in pairs:
                m |= 1 << index[a] * n + index[b]
        except KeyError as err:
            raise UnknownId("unknown element %r" % err.args) from None
        m = _close(m, n)
        mt = _packed_transpose(m, n)
        rows = _unpack(m, n)
        if m & mt != _lanes(n)[2]:
            _order_failure(ids, rows)
        return cls._derived(ids, rows, _unpack(mt, n), index)

    @classmethod
    def antichain(cls, ids):
        ids = tuple(ids)
        return cls(ids, [1 << i for i in range(len(ids))])

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self.index

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self.rows == other.rows
        )

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        """The hash of the value, kept: every value holding a poset hashes it."""
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

    def elements_of(self, mask):
        return tuple(self.elements[i] for i in _mask_iter(mask))

    @cached_property
    def _downs(self):
        """Each element's index, keyed by its down-set."""
        return dict(zip(self.cols, range(len(self.cols))))

    @cached_property
    def _ups(self):
        """Each element's index, keyed by its up-set."""
        return dict(zip(self.rows, range(len(self.rows))))

    def meet_index(self, mask):
        """Index of the greatest lower bound of the indices in `mask`,
        or None when it does not exist: the element whose down-set is
        their common lower bounds.  The empty mask asks for a top."""
        return self._downs.get(_common(self.cols, mask, (1 << len(self.cols)) - 1))

    def join_index(self, mask):
        """Dually, the least upper bound; the empty mask asks for a bottom."""
        return self._ups.get(_common(self.rows, mask, (1 << len(self.rows)) - 1))

    def is_complete_lattice(self):
        """For a finite poset: nonempty, with a top and all binary meets.
        A meet of i and j exists iff their common lower bounds are the
        principal down-set of some element."""
        n = len(self.elements)
        downs = self._downs
        if n == 0 or (1 << n) - 1 not in downs:
            return False
        cols = self.cols
        for i in range(n):
            ci = cols[i]
            for j in range(i + 1, n):
                if (ci & cols[j]) not in downs:
                    return False
        return True

    def dual(self):
        return Poset._derived(self.elements, self.cols, self.rows, self.index)

    def covers(self):
        """Pairs (a, b) with a < b and nothing strictly between, a then b
        in carrier order: b covers a when no other element of a's whole
        strict up-set lies below b."""
        out, elements, cols = [], self.elements, self.cols
        for i, row in enumerate(self.rows):
            strict_up = rest = row & ~(1 << i)
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                if not strict_up & cols[j] & ~low:
                    out.append((elements[i], elements[j]))
                rest ^= low
        return out

    def restrict(self, keep):
        """Induced subposet on `keep`, in carrier order; `UnknownId` for
        the first id of `keep` that is not an element."""
        kept = sorted(set(map(self._i, keep)))
        return _induced(self.elements, self.rows, kept)

    def relabel(self, fn):
        """The same order on the ids `fn` gives; raises `UnknownId` when
        it sends two elements to one id."""
        return Poset._derived([fn(e) for e in self.elements], self.rows, self.cols)


def _gather(rows, kept):
    """The relation `rows` induces on the distinct indices `kept`: row k
    is `rows[kept[k]]` with each bit kept[l] moved to bit l."""
    bits = [0] * len(rows)
    keep = 0
    for k, i in enumerate(kept):
        bits[i] = 1 << k
        keep |= 1 << i
    return [_union_of(bits, rows[i] & keep) for i in kept]


def _induced(elements, rows, kept):
    """The poset induced on the indices `kept`, in their order, of the
    trusted order given by `rows` over `elements`."""
    up = _gather(rows, kept)
    return Poset._derived(
        [elements[i] for i in kept], up, _transpose(up, len(kept))
    )


class MonotoneMap:
    """A total order-preserving map between posets, held by index.

    `idx` is the map on indices, source index to target index, and
    `pre_up[t]` the mask of the source indices x with t <= f(x), kept for
    `_bounds_failure`, order reflection and cut stability to read;
    `pre_down[t]`, the x with f(x) <= t, and the label form `assignment`
    are built from `idx` on first use.  Both constructors test
    monotonicity on these, each up-set `source.rows[i]` lying inside
    `pre_up[idx[i]]` (`NotMonotone`).  The public one is the
    trust boundary for parsed and user-supplied maps: the keys of the
    assignment, a mapping or its pairs, are exactly the source elements (a
    missing one is `NotMonotone`, any other key `UnknownId`) and its values
    lie in the target (`UnknownId`).  `_of_idx(source, target, idx)` makes
    a map the package derives from maps it holds and checks no label; the
    source tests pin where it is called."""

    __slots__ = ("source", "target", "idx", "pre_up", "__dict__")

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        assignment = dict(assignment)
        index = target.index
        idx = []
        for p in source.elements:
            if p not in assignment:
                raise NotMonotone("map is not total: missing %r" % (p,))
            if assignment[p] not in index:
                raise UnknownId("image %r is not in the target" % (assignment[p],))
            idx.append(index[assignment[p]])
        if len(assignment) != len(source):
            extra = next(k for k in assignment if k not in source.index)
            raise UnknownId("key %r is not in the source" % (extra,), extra)
        self.idx = tuple(idx)
        self._check_monotone()

    @classmethod
    def _of_idx(cls, source, target, idx):
        """The map with index map `idx`, derived from maps the package
        holds: only monotonicity is tested."""
        self = cls.__new__(cls)
        self.source, self.target, self.idx = source, target, tuple(idx)
        self._check_monotone()
        return self

    @cached_property
    def pre_down(self):
        """Per target element t, the mask of the source indices x with
        f(x) <= t: the target's `rows` gathered at `idx`, transposed."""
        rows = self.target.rows
        return _transpose([rows[t] for t in self.idx], len(rows))

    @cached_property
    def assignment(self):
        """The map as a dict from source to target elements, read off `idx`."""
        return dict(zip(self.source.elements, map(self.target.elements.__getitem__, self.idx)))

    def _check_monotone(self):
        """`NotMonotone` for the first i <= j, in carrier order, whose
        images are not ordered."""
        cols = self.target.cols
        self.pre_up = pre = _transpose([cols[t] for t in self.idx], len(cols))
        for i, row in enumerate(self.source.rows):
            bad = row & ~pre[self.idx[i]]
            if bad:
                p, q = self.source.elements[i], self.source.elements[_low_index(bad)]
                raise NotMonotone("%r <= %r but images are not ordered" % (p, q), (p, q))

    @classmethod
    def identity(cls, poset):
        """The identity map, monotone as it stands; its `pre_up` is the
        poset's `rows`."""
        self = cls.__new__(cls)
        self.source = self.target = poset
        self.idx = tuple(range(len(poset)))
        self.pre_up = list(poset.rows)
        return self

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
            and self.idx == other.idx
        )

    def __hash__(self):
        return hash((self.source, self.target, self.idx))

    def image(self):
        return tuple(map(self.target.elements.__getitem__, dict.fromkeys(self.idx)))

    def is_surjective(self):
        return len(set(self.idx)) == len(self.target)


def compose(outer, inner):
    """outer after inner."""
    if inner.target != outer.source:
        raise DomainMismatch("codomain of inner map differs from domain of outer")
    o = outer.idx
    return MonotoneMap._of_idx(inner.source, outer.target, [o[i] for i in inner.idx])


def _image_mask(idx):
    """The image of an index map, as a mask over its target."""
    m = 0
    for i in idx:
        m |= 1 << i
    return m


def _reflection_failure(f):
    """The first pair (p, q), in carrier order, with f(p) <= f(q) but not
    p <= q, or None."""
    pre, rows = f.pre_up, f.source.rows
    for i, t in enumerate(f.idx):
        bad = pre[t] & ~rows[i]
        if bad:
            return f.source.elements[i], f.source.elements[_low_index(bad)]
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
    return _expressible(t, _image_mask(e.map.idx)) == (1 << len(t)) - 1


def is_join_extension(e):
    t = e.target
    return _expressible(t, _image_mask(e.map.idx), join=True) == (1 << len(t)) - 1


def is_completion(e):
    return e.target.is_complete_lattice()


def is_dense(e):
    """Every target element is a join of meets of images and a meet of
    joins of images.

    q is a meet of some set of images iff it is the meet of all images
    above it, so no subset enumeration is needed.
    """
    t = e.target
    image = _image_mask(e.map.idx)
    full = (1 << len(t)) - 1
    meets = _expressible(t, image)
    joins = _expressible(t, image, join=True)
    return _expressible(t, meets, join=True) == full and _expressible(t, joins) == full


def is_delta1(e):
    return is_completion(e) and is_dense(e)


def _closed_sets(full, generators):
    """The intersections of the bit-masks in `generators`, the empty
    one giving `full`, in increasing order."""
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
    return sorted(closed)


def _inclusion(sets):
    """The inclusion rows and cols of the masks `sets`, which may repeat:
    bit j of `rows[i]` is set when `sets[i]` lies inside `sets[j]`.  Both
    come from one mask per bit p of the sets' union: `holds[p]`, the sets
    containing p, and `lacks[p]`, those without it.  The sets above c
    hold every p of c; those below c lack every p outside c."""
    every = (1 << len(sets)) - 1
    full = functools.reduce(operator.or_, sets, 0)
    holds = _transpose(sets, full.bit_length())
    lacks = [every & ~h for h in holds]
    return (
        [_common(holds, c, every) for c in sets],
        [_common(lacks, full & ~c, every) for c in sets],
    )


def _intersection_lattice(full, generators):
    """The intersections of the bit-masks in `generators` (the empty
    intersection giving `full`), ordered by inclusion; each mask is used
    directly as its element id."""
    sets = _closed_sets(full, generators)
    return Poset._derived(sets, *_inclusion(sets))


def _cut_extension(base, kept, ids=None, flip=False):
    """The extension of `base` into the distinct closed sets `kept` of its
    principal down-sets (with `flip`, of its up-sets, the order turned
    upside down), ordered by inclusion and named `ids` or by the masks.
    Each base element goes to its principal cut, which `kept` holds."""
    target = Poset._derived(kept if ids is None else ids, *_inclusion(kept))
    idx = [kept.index(c) for c in (base.rows if flip else base.cols)]
    return Extension(MonotoneMap._of_idx(base, target.dual() if flip else target, idx))


def macneille(poset):
    """The cut completion of a finite poset.

    Closed sets are exactly the intersections of principal down-sets,
    each a bit-mask over the base carrier.
    """
    return _cut_extension(poset, _closed_sets((1 << len(poset)) - 1, poset.cols))


def _bounds_failure(f, join=False):
    """A subset (as a mask) of the source of the monotone map `f` that has
    a meet not sent to the meet of its images, or None; with `join`, the
    same for joins.

    Polynomial, with no subset scan: the monotone f loses a meet iff
    some source g and target z have z not below f(g) while g is the meet
    of T = {x >= g : z <= f(x)}.  Then T is the witness: z bounds its
    images from below, f(g) does not lie above z, so f(g) is not their
    meet.  Conversely a lost meet g of S, with z a lower bound of f(S)
    not below f(g), has S inside T, so g is the meet of T.  As g bounds
    T from below, it is T's meet iff the common lower bounds of T are
    exactly those of g, one compare (as in `_expressible`), and each
    distinct T's common lower bounds are found once.  For meets T is read
    off kept arrays, `rows[g] & pre_up[z]`; joins swap `rows` and `cols`
    and read `pre_down`."""
    p, q, idx = f.source, f.target, f.idx
    if join:
        src, up, tgt, pre = p.rows, p.cols, q.rows, f.pre_down
    else:
        src, up, tgt, pre = p.cols, p.rows, q.cols, f.pre_up
    full, common = (1 << len(src)) - 1, {}
    for g, down in enumerate(src):
        below = tgt[idx[g]]
        for z, bound in enumerate(pre):
            if below >> z & 1:
                continue
            t = up[g] & bound
            if t not in common:
                common[t] = _common(src, t, full)
            if common[t] == down:
                return t
    return None


def is_cut_stable(f):
    """For every q1 !<= q2 in the target there are p1 !<= p2 in the source
    with f^{-1}(up q1) inside up p1 and f^{-1}(down q2) inside down p2.

    Such p1 are the lower bounds of f^{-1}(up q1) and such p2 the upper
    bounds U[q2] of f^{-1}(down q2), so the pair (q1, q2) is served iff
    some p2 in U[q2] lies outside A[q1], the up-sets shared by every such
    p1: one mask test per pair.  Each distinct preimage mask is bounded
    once."""
    src, tgt = f.source, f.target
    rows, cols = src.rows, src.cols
    full = (1 << len(rows)) - 1
    pre_up, pre_down = f.pre_up, f.pre_down
    shared = {m: _common(rows, _common(cols, m, full), full) for m in set(pre_up)}
    upper = {m: _common(rows, m, full) for m in set(pre_down)}
    shared, upper = [shared[m] for m in pre_up], [upper[m] for m in pre_down]
    everything = (1 << len(tgt)) - 1
    for q1, row in enumerate(tgt.rows):
        a, rest = shared[q1], everything & ~row
        while rest:
            low = rest & -rest
            if not upper[low.bit_length() - 1] & ~a:
                return False
            rest ^= low
    return True


def _lift(src, tgt, join=False):
    """Lift `tgt` along `src`, two monotone maps out of one poset: s goes
    to the meet of the `tgt` images of the elements whose `src` image lies
    above s; with `join`, to the join of those whose image lies below s.
    Returns the lift and the first p with lift(src(p)) != tgt(p), or None.
    Raises `NotCompleteLattice`, with s as witness, for the first s whose
    bound the target of `tgt` lacks."""
    S, T = src.target, tgt.target
    near = S.cols if join else S.rows
    bound = T.join_index if join else T.meet_index
    pairs = list(zip(src.idx, tgt.idx))
    lifted = []
    for s, r in zip(S.elements, near):
        images = 0
        for si, ti in pairs:
            if r >> si & 1:
                images |= 1 << ti
        g = bound(images)
        if g is None:
            raise NotCompleteLattice("lift target lacks the bound for %r" % (s,), s)
        lifted.append(g)
    h = MonotoneMap._of_idx(S, T, lifted)
    for p, (si, ti) in zip(src.source.elements, pairs):
        if lifted[si] != ti:
            return h, p
    return h, None


def _complete_hom_failure(g):
    """Why the monotone map `g` between finite lattices is no complete
    homomorphism: ("top", t) or ("bottom", b) when the source's top t or
    bottom b goes elsewhere, else ("meets", (a, b)) or ("joins", (a, b))
    for the first pair, in carrier order, whose meet or join is lost.
    None when it is one: a finite lattice has no other meets or joins.

    Each side's bounds are read from its kept table of down-sets
    (up-sets, for joins): one AND and one lookup per bound."""
    s, t = g.source, g.target
    f = g.idx
    sides = ((s.cols, s._downs, t.cols, t._downs), (s.rows, s._ups, t.rows, t._ups))
    for kind, (src, of, tgt, at) in zip(("top", "bottom"), sides):
        i = of[(1 << len(src)) - 1]
        if f[i] != at.get((1 << len(tgt)) - 1):
            return kind, s.elements[i]
    for i in range(len(f)):
        for j in range(i + 1, len(f)):
            # A monotone map keeps the meet and join of a comparable pair.
            if s.rows[i] >> j & 1 or s.rows[j] >> i & 1:
                continue
            for kind, (src, of, tgt, at) in zip(("meets", "joins"), sides):
                if f[of[src[i] & src[j]]] != at.get(tgt[f[i]] & tgt[f[j]]):
                    return kind, (s.elements[i], s.elements[j])
    return None


def macneille_lift(f):
    """Lift a cut-stable map to a complete homomorphism between the cut
    completions of its domain and codomain.  The lift sends a cut c to
    the join of the images of base elements below c; the complete-hom
    laws and the commuting square are verified and failures raise."""
    if not is_cut_stable(f):
        raise NotCutStable("map is not cut-stable")
    e_src = macneille(f.source)
    e_tgt = macneille(f.target)
    lift, miss = _lift(e_src.map, compose(e_tgt.map, f), join=True)
    if miss is not None:
        raise LiftVerificationFailed("lift does not commute with the completion embeddings", miss)
    failure = _complete_hom_failure(lift)
    if failure is not None:
        kind, witness = failure
        raise LiftVerificationFailed("lift does not preserve %s" % kind, witness)
    return lift


def check_galois_connection(alpha, beta):
    """alpha(p) <= q iff p <= beta(q), for alpha : P -> Q and beta : Q -> P:
    per p, the q above alpha(p) are those beta sends above p."""
    if alpha.source != beta.target or alpha.target != beta.source:
        raise DomainMismatch("maps do not run between the same pair of posets")
    rows = alpha.target.rows
    return all(rows[t] == up for t, up in zip(alpha.idx, beta.pre_up))


X_SIDE = "X"
Y_SIDE = "Y"


def tag_x(e):
    return (X_SIDE, e)


def tag_y(e):
    return (Y_SIDE, e)


class UnionPreorder:
    """A binary relation on a two-sided tagged carrier.

    The carrier lists X-side elements first, then Y-side, each tagged
    with its side so the two may share raw ids.  The relation is given
    as a bit-matrix, each row inside the carrier (`CarrierMismatch`
    otherwise), and held as its packed matrix `packed` (`_pack`); its
    `rows` are decoded from it on first use.  It need not be a preorder:
    `is_preorder` says whether it is, and `quotient` demands it.  A
    relation derived on the carrier of another, or of a polarity's frame,
    takes that carrier's `index` instead of building and checking its own.
    """

    # `_closed` is True once the relation is known reflexive and
    # transitive: built by `closed`, or a preorder by `is_preorder`.
    __slots__ = ("carrier", "index", "packed", "_closed", "__dict__")

    def __init__(self, carrier, rows, index=None):
        self.carrier = tuple(carrier)
        if index is None:
            index = {e: i for i, e in enumerate(self.carrier)}
            if len(index) != len(self.carrier):
                raise UnknownId("duplicate carrier elements")
        self.index = index
        rows = tuple(rows)
        n = len(self.carrier)
        if len(rows) != n:
            raise CarrierMismatch("matrix size does not match carrier")
        if rows and (max(rows) >> n or min(rows) < 0):
            raise CarrierMismatch("matrix wider than carrier")
        self.packed = _pack(rows, n)
        self._closed = False

    @classmethod
    def _of_packed(cls, carrier, index, m, closed):
        """The relation of the packed matrix `m` on a trusted carrier with
        its `index`; `closed` when `m` is known reflexive and transitive."""
        self = cls.__new__(cls)
        self.carrier, self.index, self.packed, self._closed = carrier, index, m, closed
        return self

    @cached_property
    def rows(self):
        return tuple(_unpack(self.packed, len(self.carrier)))

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
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.carrier, self.packed))

    def __len__(self):
        return len(self.carrier)

    def __repr__(self):
        return "UnionPreorder(%d elements, %d pairs)" % (
            len(self.carrier),
            self.packed.bit_count(),
        )

    def rel(self, a, b):
        try:
            return self.rows[self.index[a]] >> self.index[b] & 1 == 1
        except KeyError as err:
            raise UnknownId("unknown element %r" % (err.args[0],)) from None

    def is_reflexive(self):
        diagonal = _lanes(len(self.carrier))[2]
        return self._closed or self.packed & diagonal == diagonal

    def transitivity_witness(self):
        """`_transitivity_failure` of the relation: its first (a, b, c) in
        carrier order, or None when it is transitive."""
        return None if self.is_transitive() else _transitivity_failure(self.carrier, self.rows)

    def is_transitive(self):
        return self._closed or _packed_transitive(self.packed, len(self.carrier))

    def is_preorder(self):
        """Whether the relation is reflexive and transitive: one AND with
        the diagonal and the packed verdict.  A preorder is kept as
        closed."""
        self._closed = self.is_reflexive() and self.is_transitive()
        return self._closed

    def closed(self):
        """The reflexive-transitive closure: one packed Warshall pass on
        `packed` (`_close`), whose result is known closed, so that it is
        neither tested for transitivity nor closed again; a relation
        already known closed is its own closure.  The closure is kept, so
        closing a kept relation again (a polarity's saturation) costs
        nothing."""
        return self if self._closed else self._closure

    @cached_property
    def _closure(self):
        n = len(self.carrier)
        return UnionPreorder._of_packed(self.carrier, self.index, _close(self.packed, n), True)

    def quotient(self):
        return Quotient(self)


class Quotient:
    """The poset of equivalence classes of a preorder on a tagged carrier.

    Each class is represented by its least-indexed member; `of[i]` is the
    index in `poset` of the class of carrier element i, and `projection`
    sends a carrier element to its representative.  The source must be a
    preorder (`NotPreorder` otherwise, with the transitivity witness);
    the order on the representatives is then its restriction, a poset.
    """

    __slots__ = ("source", "poset", "of", "__dict__")

    def __init__(self, source):
        if not source.is_preorder():
            raise NotPreorder(
                "cannot quotient a relation that is not a preorder",
                source.transitivity_witness(),
            )
        rows = source.rows
        reps, of = [], []
        seen = 0
        for i, row in enumerate(rows):
            # i joins the first representative on both sides of it.
            rest = row & seen
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                if rows[j] >> i & 1:
                    of.append(of[j])
                    break
                rest ^= low
            else:
                of.append(len(reps))
                reps.append(i)
                seen |= 1 << i
        self.source = source
        self.poset = _induced(source.carrier, rows, reps)
        self.of = tuple(of)

    @cached_property
    def projection(self):
        reps = self.poset.elements
        return {e: reps[k] for e, k in zip(self.source.carrier, self.of)}

    @cached_property
    def classes(self):
        members = tuple(zip(self.of, self.source.carrier))
        reps = enumerate(self.poset.elements)
        return {r: tuple(e for c, e in members if c == k) for k, r in reps}

    def descend(self, values):
        """The map on the classes that `values`, one per carrier element,
        induce: the value each class takes, in `poset` order.  Raises `LawViolation("well-defined",
        ...)` with the members of the first class whose members disagree."""
        # Classes are numbered as their first member, the representative,
        # comes up in carrier order.
        out, bad = [], len(self.poset)
        for k, v in zip(self.of, values):
            if k == len(out):
                out.append(v)
            elif out[k] != v:
                bad = min(bad, k)
        if bad < len(out):
            members = self.classes[self.poset.elements[bad]]
            raise LawViolation("well-defined", "the members of a class disagree", members)
        return out
