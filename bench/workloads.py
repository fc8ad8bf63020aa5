"""The three benchmark workloads: input pools, the timed item, and the
untimed verdict checks.

Every call into the package goes through a module attribute
(`pz.check_coherence`, not a name bound at import), so the outside-in
tracer in `tracer.py` sees the calls once it has rebound those names.

A workload draws the k-th input of its pool with `draw(rng, k)`; the
base size cycles with k through the workload's range, and everything
else is drawn freely from the seed.  `transfer` alone builds its pool
in blocks with a fixed number of inputs per cost class: its item costs
are so heavy-tailed that freely drawn pools of different seeds ran at
throughputs far apart (NOTES.md gives the figures).  Besides `pool` and
`draw`, a workload has:

- `run(inp)`, the timed item, returning its raw outputs;
- `check(k, inp, out)`, untimed, returning failure messages (the
  oracles run only here);
- `summary(out)`, the part of the verdict that goes into the digest,
  free of anything that depends on hash order;
- `gate_notes(out)` and `refusals(out)`: how many clause notes name a
  size-gate fallback, and how many `CarrierTooLarge` refusals the item
  caught; `gated(out)` says whether either cut the verdict short.
"""

from __future__ import annotations

from polab import (
    concepts,
    delta1,
    docformat,
    errors,
    extend,
    morphisms,
    oracles,
    randgen,
)
from polab import polarity as pz


def document_text(pol):
    """Serialize a bare polarity as a `.pol` document named G."""
    doc = docformat.Document()
    doc.posets["P"] = pol.base
    doc.posets["X"] = pol.x
    doc.posets["Y"] = pol.y
    doc.maps["ex"] = pol.ex.map
    doc.maps["ey"] = pol.ey.map
    doc.polarities["G"] = pol
    return docformat.serialize(doc)


class Workload:
    # Pool items per second of --seconds, near each workload's speed at
    # this commit.
    items_per_second = 1.0

    def pool(self, rng, seconds):
        """`items_per_second` items per second of `seconds`, one at least,
        each drawn freely from the seed.  A run times each item of its
        pool once, so two commits run on one seed time the same items."""
        n = max(1, round(seconds * self.items_per_second))
        return [self.draw(rng, k) for k in range(n)]

    def gate_notes(self, out):
        return 0

    def refusals(self, out):
        """`CarrierTooLarge` refusals the item caught itself."""
        return 0

    def gated(self, out):
        return self.gate_notes(out) + self.refusals(out) > 0


# -- grade -----------------------------------------------------------------

CANONICAL = ("r_zero", "r_hat_m", "r_hat_m", "r_hat_g")
ENUM_CAP = 64
ORACLE_EVERY = 8


class Grade(Workload):
    """Mixed polarities on base sizes 2-9 through the condition layer:
    half arbitrary polarities, a quarter slice relations over random
    embeddings and a quarter Galois polarities."""

    name = "grade"
    sizes = range(2, 10)
    kinds = ("arbitrary", "slice", "arbitrary", "galois")
    # Half its speed: its spread is small at 3200 items, and its pool,
    # generated three times in set-up, takes about as long to make as
    # to time.
    items_per_second = 160.0

    def draw(self, rng, k):
        size = self.sizes[k % len(self.sizes)]
        kind = self.kinds[k // len(self.sizes) % len(self.kinds)]
        if kind == "arbitrary":
            pol = randgen.random_extension_polarity(rng, size)
        elif kind == "slice":
            base = randgen.random_poset(rng, size)
            ex = randgen.random_embedding(rng, base, prefix="x")
            ey = randgen.random_embedding(rng, base, prefix="y")
            pol = pz.ExtensionPolarity(base, ex, ey, pz.r_l(ex, ey))
        else:
            pol = randgen.random_galois_polarity(rng, size)
        return {
            "text": document_text(pol),
            "base": len(pol.base),
            "carrier": len(pol.x) + len(pol.y),
        }

    def run(self, inp):
        pol = docformat.parse(inp["text"]).polarities["G"]
        report = pz.check_coherence(pol)
        canonical = []
        for n, builder in enumerate(CANONICAL):
            rel = getattr(pz, builder)(pol).closed()
            canonical.append((rel, pz.is_n_preorder(pol, rel, n).ok))
        found = None
        if len(pol.carrier()) <= pz.DEFAULT_MAX_CARRIER:
            found = [
                pz.enumerate_n_preorders(
                    pol, n, cap=ENUM_CAP, max_carrier=pz.DEFAULT_MAX_CARRIER
                )
                for n in range(4)
            ]
        return {"pol": pol, "report": report, "canonical": canonical, "found": found}

    def check(self, k, inp, out):
        """Grade n holds exactly when the n-th canonical preorder is an
        n-preorder, exactly when some n-preorder exists, and then the
        canonical one is least; every eighth item is also graded by the
        naive oracle."""
        level = out["report"].level
        fails = []
        for n, (rel, ok) in enumerate(out["canonical"]):
            holds = level is not None and level >= n
            if ok != holds:
                fails.append("grade %d: canonical verdict %s at level %s" % (n, ok, level))
            if out["found"] is not None:
                found = out["found"][n]
                if (len(found) > 0) != holds:
                    fails.append("grade %d: enumeration disagrees with level %s" % (n, level))
                if any(
                    rel.rows[i] & ~u.rows[i] for u in found for i in range(len(rel.carrier))
                ):
                    fails.append("grade %d: canonical preorder is not least" % n)
        if k % ORACLE_EVERY == 0:
            naive = oracles.naive_coherence_level(out["pol"])
            if naive != level:
                fails.append("level %s but the naive oracle says %s" % (level, naive))
        return fails

    def summary(self, out):
        found = out["found"]
        return (
            out["report"].level,
            out["report"].galois,
            tuple(ok for _, ok in out["canonical"]),
            None if found is None else tuple((len(f), f.truncated) for f in found),
        )


# -- complete --------------------------------------------------------------


def _lattice_text(lattice):
    labels = {e: "c%d" % k for k, e in enumerate(lattice.elements)}
    doc = docformat.Document()
    doc.posets["L"] = lattice.relabel(labels.__getitem__)
    return docformat.serialize(doc)


class Complete(Workload):
    """Galois polarities on base sizes 3-7 through the completion layer."""

    name = "complete"
    sizes = range(3, 8)
    items_per_second = 9.0

    def draw(self, rng, k):
        pol = randgen.random_galois_polarity(rng, self.sizes[k % len(self.sizes)])
        return {
            "text": document_text(pol),
            "base": len(pol.base),
            "carrier": len(pol.x) + len(pol.y),
        }

    def run(self, inp):
        pol = docformat.parse(inp["text"]).polarities["G"]
        d = delta1.gamma_on_objects(pol)
        lattice = concepts.concept_lattice(pol)
        eta = delta1.unit(pol)
        tau = delta1.counit_iso(d)
        ident = morphisms.roundtrip_holds(morphisms.PolarityMorphism.identity(pol))
        collapse = morphisms.roundtrip_holds(randgen.collapse_morphism(pol))
        text = _lattice_text(d.lattice)
        return {
            "d": d,
            "lattice": lattice,
            "eta": eta,
            "tau": tau,
            "roundtrips": (ident, collapse),
            "text": text,
        }

    def check(self, k, inp, out):
        """`unit` and `counit_iso` certify themselves; both morphism
        round trips must hold."""
        fails = []
        if not all(out["roundtrips"]):
            fails.append("morphism round trip fails: %s" % (out["roundtrips"],))
        if not out["eta"].is_embedding():
            fails.append("unit is not an embedding")
        if not out["tau"].is_isomorphism():
            fails.append("counit is not an isomorphism")
        return fails

    def summary(self, out):
        return (
            len(out["d"].lattice),
            len(out["lattice"].poset),
            out["eta"].is_isomorphism(),
            out["roundtrips"],
            len(out["text"]),
        )


# -- transfer --------------------------------------------------------------

SWEEP_LIMIT = 13  # check_extension_preservation's default enumeration_limit

# Of 3000 contexts on base sizes 1..3, cycled (see calibrate.py): the
# number k of undetermined outer pairs the clause-5 sweep enumerates
# ("G": above the limit, so the sweep is skipped), and for k of 9 or
# more also the outer carrier size (7 or less, 8, 9 or more), which
# sets the cost of grading each of the 2^k relations ...
TRANSFER_SWEEPS = {
    "G": 407, 0: 700, 1: 472, 2: 73, 3: 118, 4: 122, 5: 86, 6: 136,
    7: 165, 8: 139,
    "9/7": 64, "9/8": 37, "9/9": 30,
    "10/7": 46, "10/8": 59, "10/9": 37,
    "11/7": 25, "11/8": 64, "11/9": 36,
    "12/7": 9, "12/8": 44, "12/9": 41,
    "13/8": 53, "13/9": 37,
}
# ... and the sizes, as powers of two, of the outer and inner relation
# lattices the adjunction sweeps ("G": refused by the function's own
# gate; at 2^12 outer relations the 2^12 inner lattice is a class of
# its own, as it alone adds some 7 MB to the peak RSS).  The adjunction
# items leave out the 2^15 and 2^16 outer lattices the gate still
# admits: one such item takes 5-10 s, more than half of a run, so
# a run would hold one or none of them and its throughput would follow
# that draw.  The sweep code they run is the same as at 2^12.
TRANSFER_ADJUNCTIONS = {
    "G": 731, "1": 1000, "4": 279, "6-9": 302, "12/<12": 227, "12/12": 170,
}


def sweep_class(ctx):
    nx, ny = len(ctx.ix.target), len(ctx.iy.target)
    image = {(ctx.ix(x), ctx.iy(y)) for x, y in ctx.inner.rel}
    free = nx * ny - len(image)
    if free > SWEEP_LIMIT:
        return "G"
    if free < 9:
        return free
    return "%d/%d" % (free, max(7, min(9, nx + ny)))


def adjunction_class(ctx):
    inner = len(ctx.inner.x) * len(ctx.inner.y)
    outer = len(ctx.ix.target) * len(ctx.iy.target)
    if inner > 12 or outer > 16:
        return "G"
    if outer in (1, 4):
        return str(outer)
    if outer == 12:
        return "12/12" if inner == 12 else "12/<12"
    return "15-16" if outer >= 15 else "6-9"  # "15-16" is never drawn


def apportion(counts, slots):
    """Split `slots` over the classes in proportion to `counts`, by
    largest remainder."""
    total = sum(counts.values())
    exact = {c: slots * n / total for c, n in counts.items()}
    out = {c: int(v) for c, v in exact.items()}
    short = slots - sum(out.values())
    for c in sorted(exact, key=lambda c: (out[c] - exact[c], str(c)))[:short]:
        out[c] += 1
    return out


DRAWS_PER_SLOT = 10
DRAW_LIMIT = 100_000


def fill(rng, quotas, goal, draw):
    """Draw candidates, `DRAWS_PER_SLOT` per slot of the classes in `goal`
    at least, and on until their quotas are met.

    `draw(rng, k)` returns the k-th candidate and the classes it would
    fill.  It is kept when each of them has room left; `quotas` shrinks
    in place.  Returns the kept (candidate, classes) pairs.  The quotas
    come from a sample ten times their size, so ten draws per slot meet
    them nearly always, and set-up does the same work for every seed."""
    out = []
    least = DRAWS_PER_SLOT * sum(quotas[c] for c in goal)
    for k in range(DRAW_LIMIT):
        if k >= least and not any(quotas[c] for c in goal):
            return out
        obj, classes = draw(rng, k)
        if all(quotas.get(c, 0) > 0 for c in classes):
            for c in classes:
                quotas[c] -= 1
            out.append((obj, classes))
    raise RuntimeError("class quotas not met after %d draws" % DRAW_LIMIT)


def _clauses(report):
    return tuple((k, r.applicable, r.holds, r.note) for k, r in sorted(report.items()))


GATE_NOTES = ("checked against the saturated candidate only", "argued via monotonicity")


class Transfer(Workload):
    """Extension contexts on base sizes 1-3 through the relation sweeps.

    One item in ten also checks the relation lattice adjunction.  A
    block fixes how many items fall in each sweep size, and how many of
    the adjunction items in each adjunction sweep size."""

    name = "transfer"
    sizes = range(1, 4)
    block_items = 300
    # One block at --seconds 20: 300 items, about 30 s at this commit.
    # Fewer leave its tail quantiles unsteady.
    items_per_second = 15.0
    quotas = {
        **{("sweep", c): n for c, n in apportion(TRANSFER_SWEEPS, block_items).items()},
        **{("adjunction", c): n for c, n in apportion(TRANSFER_ADJUNCTIONS, block_items // 10).items()},
    }

    def block(self, rng):
        """The adjunction items are drawn first, each also taking a slot
        of its sweep size; the other items fill the sweep sizes left."""

        def draw(adjunction):
            def go(rng, k):
                ctx = randgen.random_context(rng, self.sizes[k % len(self.sizes)])
                classes = [("sweep", sweep_class(ctx))]
                if adjunction:
                    classes.append(("adjunction", adjunction_class(ctx)))
                return ctx, classes

            return go

        quotas = dict(self.quotas)
        kept = []
        for adjunction in (True, False):
            goal = [c for c in quotas if (c[0] == "adjunction") == adjunction]
            kept += fill(rng, quotas, goal, draw(adjunction))
        out = [self.item(ctx, len(classes) == 2) for ctx, classes in kept]
        rng.shuffle(out)
        return out

    def pool(self, rng, seconds):
        """Whole blocks, the last one cut short when `seconds` asks for
        fewer items."""
        n = max(1, round(seconds * self.items_per_second))
        out = []
        while len(out) < n:
            out.extend(self.block(rng))
        return out[:n]

    def draw(self, rng, k):
        """A context drawn freely, outside the blocks; the warm-up runs
        these."""
        return self.item(randgen.random_context(rng, self.sizes[k % len(self.sizes)]), False)

    def item(self, ctx, adjunction):
        return {
            "ctx": ctx,
            "adjunction": adjunction,
            "base": len(ctx.inner.base),
            "carrier": len(ctx.ix.target) + len(ctx.iy.target),
        }

    def run(self, inp):
        ctx = inp["ctx"]
        up = extend.check_extension_preservation(ctx)
        sbar = extend.extend_relation(ctx)
        down = extend.check_restriction_preservation(ctx, sbar)
        sliced = extend.slice_extension_is_slice(ctx)
        adj = None
        if inp["adjunction"]:
            try:
                adj = extend.relation_lattice_adjunction(ctx)
            except errors.CarrierTooLarge:
                adj = "gated"
        return {"up": up, "down": down, "slice": sliced, "adjunction": adj}

    def check(self, k, inp, out):
        """Every applicable clause, the slice law, and the unit, counit
        and law of the adjunction must hold."""
        fails = []
        for label in ("up", "down"):
            for key, r in sorted(out[label].items()):
                if r.applicable and not r.holds:
                    fails.append("%s clause %s fails" % (label, key))
        if not out["slice"]:
            fails.append("saturated slice relation is not the outer slice")
        adj = out["adjunction"]
        if adj not in (None, "gated") and not (
            adj.unit_holds and adj.counit_holds and adj.law_holds
        ):
            fails.append("relation lattice adjunction fails: %r" % (adj,))
        return fails

    def summary(self, out):
        adj = out["adjunction"]
        if adj not in (None, "gated"):
            adj = (
                adj.unit_checked,
                adj.counit_checked,
                adj.law_checked,
                adj.unit_holds and adj.counit_holds and adj.law_holds,
            )
        return (_clauses(out["up"]), _clauses(out["down"]), out["slice"], adj)

    def gate_notes(self, out):
        """Clause notes saying a size gate replaced the full check."""
        return sum(
            r.note.count(note)
            for label in ("up", "down")
            for r in out[label].values()
            for note in GATE_NOTES
        )

    def refusals(self, out):
        return int(out["adjunction"] == "gated")


WORKLOADS = {w.name: w for w in (Grade(), Complete(), Transfer())}
