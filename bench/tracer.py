"""An outside-in tracer: wraps named public functions of the package.

Each wrapped function records a span (name, start, end, parent, item)
and adds its duration to its parent's child time, so that self time is
a span's duration minus the time its child spans cover.  Every span is
kept in memory, in one array of 64-bit integers per field (48 bytes a
span; a traced `transfer` run logs about a million), and written out
when the run ends.  Times are integer nanoseconds, so self time is
never negative by rounding.

A wrapper replaces the name in the defining module and in every
`polab.*` module that imported the same object by name, so calls made
inside the package are seen as well.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# (module, attribute): a span per call.
SPANS = (
    ("docformat", "parse"),
    ("docformat", "serialize"),
    ("polarity", "check_coherence"),
    ("polarity", "is_n_preorder"),
    ("polarity", "r_zero"),
    ("polarity", "r_hat_m"),
    ("polarity", "r_hat_g"),
    ("polarity", "enumerate_n_preorders"),
    ("polarity", "unique_3preorder"),
    ("polarity", "intermediate_structure"),
    ("morphisms", "structure_of"),
    ("morphisms", "roundtrip_holds"),
    ("delta1", "gamma_on_objects"),
    ("delta1", "delta_on_objects"),
    ("delta1", "unit"),
    ("delta1", "counit_iso"),
    ("order", "macneille"),
    ("concepts", "concept_lattice"),
    ("extend", "check_extension_preservation"),
    ("extend", "check_restriction_preservation"),
    ("extend", "relation_lattice_adjunction"),
    ("extend", "extend_relation"),
    ("order", "transitive_close"),
    ("order", "is_order_embedding"),
    ("order", "is_meet_extension"),
    ("order", "is_join_extension"),
)

# (module, class, method): calls counted, no span.
COUNTS = (
    ("order", "Poset", "meet_index"),
    ("order", "Poset", "join_index"),
)

SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "item")


class Tracer:
    def __init__(self):
        self.names = ["%s.%s" % span for span in SPANS]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.counts = Counter()
        self.enabled = False
        self.item = -1
        # Per open span: [span id, child ns].
        self._stack = []
        self._next_id = 0
        self._cols = [array("q") for _ in SPAN_FIELDS]
        self._seen = set()
        self._restore = []

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, k, fn):
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[k] += 1
                self.self_ns[k] += dur - frame[1]
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                self._log(sid, k, start, end, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    def _log(self, sid, k, start, end, parent):
        ids, names, starts, ends, parents, items = self._cols
        ids.append(sid)
        names.append(k)
        starts.append(start)
        ends.append(end)
        parents.append(parent)
        items.append(self.item)

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _serialize(self, fn):
        inner = self._spanned(self.names.index("docformat.serialize"), fn)

        def wrapper(doc):
            text = inner(doc)
            if self.enabled:
                self.counts["docformat.serialize.bytes"] += len(text.encode())
            return text

        return wrapper

    def _structure_of(self, fn):
        inner = self._spanned(self.names.index("morphisms.structure_of"), fn)

        def wrapper(pol):
            if self.enabled:
                if pol in self._seen:
                    self.counts["morphisms.structure_of.repeats"] += 1
                self._seen.add(pol)
            return inner(pol)

        return wrapper

    def _sweep(self, fn):
        def wrapper(pol):
            level = fn(pol)
            if self.enabled:
                self.counts["extend.sweep.relations"] += 1
                if level is not None:
                    self.counts["extend.sweep.coherent"] += 1
            return level

        return wrapper

    # -- install -----------------------------------------------------------

    def _rebind(self, orig, wrapper):
        for name, mod in list(sys.modules.items()):
            if name != "polab" and not name.startswith("polab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))

    def install(self):
        """Wrap every named function and start recording."""
        mods = {m: sys.modules["polab." + m] for m, _ in SPANS}
        for k, (m, attr) in enumerate(SPANS):
            orig = getattr(mods[m], attr)
            if attr == "serialize":
                wrapper = self._serialize(orig)
            elif attr == "structure_of":
                wrapper = self._structure_of(orig)
            else:
                wrapper = self._spanned(k, orig)
            self._rebind(orig, wrapper)
        for m, cls_name, attr in COUNTS:
            cls = getattr(mods[m], cls_name)
            orig = getattr(cls, attr)
            setattr(cls, attr, self._counted("%s.%s.%s" % (m, cls_name, attr), orig))
            self._restore.append((cls, attr, orig))
        # Only the sweeps in `extend` grade relations through this name.
        ext = sys.modules["polab.extend"]
        self._restore.append((ext, "coherence_level", ext.coherence_level))
        ext.coherence_level = self._sweep(ext.coherence_level)
        self.enabled = True

    def uninstall(self):
        self.enabled = False
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def start_item(self, k):
        """Spans that follow belong to item k; repeats of structure_of
        are counted within one item."""
        self.item = k
        self._seen = set()

    # -- results -----------------------------------------------------------

    def metrics(self):
        out = {}
        for k, name in enumerate(self.names):
            out[name + ".calls"] = (self.calls[k], "count")
            out[name + ".self_s"] = (self.self_ns[k] / 1e9, "s")
        for m, cls_name, attr in COUNTS:
            name = "%s.%s.%s" % (m, cls_name, attr)
            out[name + ".calls"] = (self.counts[name], "count")
        out["docformat.serialize.bytes"] = (self.counts["docformat.serialize.bytes"], "bytes")
        calls = self.calls[self.names.index("morphisms.structure_of")]
        repeats = self.counts["morphisms.structure_of.repeats"]
        out["morphisms.structure_of.repeat_frac"] = (repeats / calls if calls else 0.0, "frac")
        swept = self.counts["extend.sweep.relations"]
        coherent = self.counts["extend.sweep.coherent"]
        out["extend.sweep.relations"] = (swept, "count")
        out["extend.sweep.coherent_frac"] = (coherent / swept if swept else 0.0, "frac")
        return out

    def write_spans(self, path):
        """Write the spans to `path`, field after field, each a column of
        native 64-bit integers; returns the header that reads them
        back.  Span ids number spans in the order they opened; a parent
        of -1 marks a span opened outside any other."""
        with open(path, "wb") as f:
            for col in self._cols:
                col.tofile(f)
        return {
            "file": path.name,
            "fields": list(SPAN_FIELDS),
            "count": len(self._cols[0]),
            "names": self.names,
        }
