"""Maps between Galois polarities and their carrier-level counterparts.

A polarity morphism is a compatible triple of monotone maps between the
two sides and the bases.  Each such triple corresponds to exactly one
stable map between the intermediate quotients, and the translation in
either direction is implemented and certified here.  Whether a triple
keeps the cross-side order and reflects every absent relation pair is
decided on bit-masks, with no loop over source pairs per target pair.
"""

from __future__ import annotations

from .errors import DomainMismatch, LawViolation, MorphismInvalid, PartialInverseUndefined
from .order import (
    MonotoneMap,
    _common,
    _image_mask,
    _low_index,
    _mask_iter,
    _reflection_failure,
    _transpose,
    compose as compose_maps,
    is_cut_stable,
    is_order_embedding,
)
from .polarity import structure_of


class PolarityMorphism:
    """A triple of monotone maps between Galois polarities.

    The triple must commute with the side embeddings, respect the
    cross-side order of the intermediate quotients, and reflect every
    absent relation pair back to an absent pair bounding it.
    """

    __slots__ = ("source", "target", "hx", "hp", "hy", "src_struct", "tgt_struct", "_related")

    def __init__(self, source, target, hx, hp, hy):
        if hx.source != source.x or hx.target != target.x:
            raise DomainMismatch("left component must map the left sides")
        if hy.source != source.y or hy.target != target.y:
            raise DomainMismatch("right component must map the right sides")
        if hp.source != source.base or hp.target != target.base:
            raise DomainMismatch("base component must map the bases")
        self.source = source
        self.target = target
        self.hx, self.hp, self.hy = hx, hp, hy
        self.src_struct = structure_of(source)
        self.tgt_struct = structure_of(target)
        self._validate()

    def _validate(self):
        s, t = self.source, self.target
        hx, hp, hy = self.hx.idx, self.hp.idx, self.hy.idx
        squares = zip(s.base.elements, s.ex.map.idx, s.ey.map.idx, hp)
        tx, ty = t.ex.map.idx, t.ey.map.idx
        for p, i, j, k in squares:
            if hx[i] != tx[k]:
                raise MorphismInvalid("commute-left", "left square does not commute", p)
            if hy[j] != ty[k]:
                raise MorphismInvalid("commute-right", "right square does not commute", p)
        crossed = self._cross_order_failure()
        if crossed is not None:
            raise MorphismInvalid("cross-order", "cross-side order not respected", crossed)
        # Per target x', the source y with x' R' hy(y): read by the
        # reflection check and by `is_embedding`.
        self._related = _transpose([t._rows[1][b] for b in hy], len(t.x))
        unreflected = self._unreflected()
        if unreflected is not None:
            raise MorphismInvalid(
                "reflection", "absent pair has no bounding absent pair", unreflected
            )

    def _cross_order_failure(self):
        """The first (y, x), with x in carrier order and then y, whose
        classes are ordered in the source quotient, the class of y below
        the class of x, while those of hy(y) and hx(x) are not ordered in
        the target quotient; None when the cross-side order is kept.

        For each y, the x whose class lies above that of y are one mask
        in the source, read off the left embedding's `pre_up`, and one in
        the target, read off the same masks of x -> ja(hx(x))."""
        src, tgt = self.src_struct, self.tgt_struct
        above, ib = src.iota_x.pre_up, src.iota_y.idx
        ja, jb = tgt.iota_x.idx, tgt.iota_y.idx
        cols = tgt.quotient.poset.cols
        kept = _transpose([cols[ja[a]] for a in self.hx.idx], len(cols))
        bad = [above[ib[y]] & ~kept[jb[b]] for y, b in enumerate(self.hy.idx)]
        first = 0
        for m in bad:
            first |= m
        if not first:
            return None
        x = _low_index(first)
        y = next(y for y, m in enumerate(bad) if m >> x & 1)
        return self.source.y.elements[y], self.source.x.elements[x]

    def _unreflected(self):
        """The first absent target pair (x', y'), in carrier order, that no
        absent source pair (x, y) bounds, or None.

        (x, y) bounds (x', y') when x lies below every a with x' <= hx(a)
        and is related to every b with x' R' hy(b), and y lies above every
        b with hy(b) <= y' and is related from every a with hx(a) R' y'.
        Each condition involves one side only, so every target element
        gets the mask of its admissible source elements once, and (x', y')
        is reflected iff some admissible x misses some admissible y, that
        is iff an admissible y lies outside the relation rows shared by
        all admissible x: one mask test per pair.
        """
        s, t = self.source, self.target
        tx, ty = t.x, t.y
        hx = self.hx.idx
        (s_row, s_col), t_row = s._rows, t._rows[0]
        xs = _admissible(self.hx.pre_up, s.x.cols, self._related, s_col)
        related_y = _transpose([t_row[a] for a in hx], len(ty))
        ys = _admissible(self.hy.pre_down, s.y.rows, related_y, s_row)
        full_t, full_s = (1 << len(ty)) - 1, (1 << len(s.y)) - 1
        for xp in range(len(tx)):
            missing = full_s & ~_common(s_row, xs[xp], full_s)
            for yp in _mask_iter(full_t & ~t_row[xp]):
                if not ys[yp] & missing:
                    return tx.elements[xp], ty.elements[yp]
        return None

    def __eq__(self, other):
        return (
            isinstance(other, PolarityMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.hx == other.hx
            and self.hp == other.hp
            and self.hy == other.hy
        )

    def __hash__(self):
        return hash((self.source, self.target, self.hx, self.hp, self.hy))

    def is_embedding(self):
        """Each component an order embedding, and x R y whenever hx(x) R'
        hy(y): per x, the y whose images are related to hx(x) lie in the
        row of x."""
        if not all(map(is_order_embedding, (self.hx, self.hp, self.hy))):
            return False
        return not any(self._related[a] & ~r for a, r in zip(self.hx.idx, self.source._rows[0]))

    def is_isomorphism(self):
        return self.is_embedding() and all(h.is_surjective() for h in (self.hx, self.hp, self.hy))

    @classmethod
    def identity(cls, pol):
        return cls(pol, pol, *map(MonotoneMap.identity, (pol.x, pol.base, pol.y)))


def _admissible(pre, bound, pre_rel, related):
    """Per target element t, the mask of the source elements lying in
    `bound[a]` for every a in `pre[t]` and in `related[b]` for every b in
    `pre_rel[t]`: one AND over `bound` and `related` side by side."""
    full, shift, vecs = (1 << len(bound)) - 1, len(bound), list(bound) + list(related)
    return [_common(vecs, m | r << shift, full) for m, r in zip(pre, pre_rel)]


def is_galois_stable(psi, src_struct, tgt_struct):
    """Order preserving, cut-stable, and carrying base and side images
    into the corresponding images, as masks over the target quotient."""
    if not is_cut_stable(psi):
        return False
    f = psi.idx
    return all(
        not _image_mask(f[v] for v in a.idx) & ~_image_mask(b.idx)
        for a, b in (
            (src_struct.gamma, tgt_struct.gamma),
            (src_struct.iota_x, tgt_struct.iota_x),
            (src_struct.iota_y, tgt_struct.iota_y),
        )
    )


def psi_of(morphism):
    """The stable quotient map induced by a polarity morphism.

    Certified on the way out: well defined across equivalence classes,
    stable, an embedding exactly when the morphism embeds, and onto
    whenever both side components are.  A failed certificate raises
    `LawViolation` with its witness.
    """
    src, tgt = morphism.src_struct, morphism.tgt_struct
    hx, hy = morphism.hx, morphism.hy
    ja, jb = tgt.iota_x.idx, tgt.iota_y.idx
    values = [ja[a] for a in hx.idx] + [jb[b] for b in hy.idx]
    q = src.quotient
    psi = MonotoneMap._of_idx(q.poset, tgt.quotient.poset, q.descend(values))
    if not is_galois_stable(psi, src, tgt):
        raise LawViolation("stable", "induced quotient map must be stable", psi.assignment)
    unreflected = _reflection_failure(psi)
    if (unreflected is None) != morphism.is_embedding():
        raise LawViolation(
            "embeds", "quotient map embeds exactly when the morphism does", unreflected
        )
    if hx.is_surjective() and hy.is_surjective() and not psi.is_surjective():
        raise LawViolation(
            "onto",
            "surjective components force an onto map",
            set(psi.target.elements) - set(psi.image()),
        )
    return psi


def _first_preimages(emb, values, label):
    """Per index in `values`, the first source index the embedding `emb`
    sends there; `PartialInverseUndefined` for the first value it misses."""
    first = {}
    for a, t in enumerate(emb.idx):
        first.setdefault(t, a)
    for t in values:
        if t not in first:
            value = emb.target.elements[t]
            raise PartialInverseUndefined("%s misses the value %r" % (label, value))
    return [first[t] for t in values]


def _recovered_idx(psi, src, tgt):
    """The index tuples of the left, right and base components of the
    morphism recovered from psi, one by one: each sends an element to the
    first one its image under psi comes from."""
    f = psi.idx
    for iota, into, label in (
        (src.iota_x, tgt.iota_x, "left side"),
        (src.iota_y, tgt.iota_y, "right side"),
        (src.gamma, tgt.gamma, "base"),
    ):
        yield tuple(_first_preimages(into, [f[v] for v in iota.idx], label))


def h_of(psi, source, target):
    """The polarity morphism recovered from a stable quotient map
    (`_recovered_idx`)."""
    src, tgt = structure_of(source), structure_of(target)
    if psi.source != src.quotient.poset or psi.target != tgt.quotient.poset:
        raise DomainMismatch("map must run between the intermediate quotients")
    if not is_galois_stable(psi, src, tgt):
        raise MorphismInvalid("stability", "map is not stable", None)
    sides = ((source.x, target.x), (source.y, target.y), (source.base, target.base))
    hx, hy, hp = (
        MonotoneMap._of_idx(side, other, idx)
        for (side, other), idx in zip(sides, _recovered_idx(psi, src, tgt))
    )
    return PolarityMorphism(source, target, hx, hp, hy)


def roundtrip_holds(morphism):
    """Translating a morphism to its quotient map and back returns it.

    psi_of certifies psi stable, and the morphism was validated when it
    was built, so recovered index tuples equal to its own are the
    morphism itself and are not validated again.  Other tuples are
    built and validated by `h_of`, which raises on an invalid triple."""
    psi = psi_of(morphism)
    own = (morphism.hx.idx, morphism.hy.idx, morphism.hp.idx)
    if tuple(_recovered_idx(psi, morphism.src_struct, morphism.tgt_struct)) == own:
        return True
    return h_of(psi, morphism.source, morphism.target) == morphism


def stable_roundtrip_holds(psi, source, target):
    """Translating a stable map to a morphism and back returns it."""
    return psi_of(h_of(psi, source, target)) == psi


def compose(outer, inner):
    """Componentwise composition, certified against the quotient maps."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise DomainMismatch("morphisms do not share the middle polarity")
    composed = PolarityMorphism(
        inner.source,
        outer.target,
        compose_maps(outer.hx, inner.hx),
        compose_maps(outer.hp, inner.hp),
        compose_maps(outer.hy, inner.hy),
    )
    lhs = psi_of(composed)
    rhs = compose_maps(psi_of(outer), psi_of(inner))
    for z, a, b in zip(lhs.source.elements, lhs.idx, rhs.idx):
        if a != b:
            raise LawViolation("compose", "quotient maps must compose with the morphisms", z)
    return composed
