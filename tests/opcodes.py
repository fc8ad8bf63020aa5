"""Opcodes the benchmark workloads execute, counted by a trace: a measure
that repeats exactly, for changes too small for wall time to resolve.

    PYTHONPATH=src python3 tests/opcodes.py [--workload all] [--seed 0] [--seconds 4]

For each workload of `bench/workloads.py` the script draws the pool that
`bench/run.py` times at the same seed and `--seconds`, and runs the
`WARMUP_ITEMS` inputs drawn after it once, untraced, as `bench/run.py`
warms up.  It then counts the opcode events of one `run` of every pool
item under `sys.settrace`, with `f_trace_opcodes` set on every frame
entered, and prints the total, the item count and the five code objects
that executed the most.  The count is of a cold pass: the pool's first
run fills process caches (`order._lanes`, `order._carrier_blocks`, the
`randgen` memos) that the warm-up, drawn after the pool, leaves unfilled,
so a second count in one process reads lower, and counts compare only
between fresh processes.  Set iteration order moves the count, so the
script runs itself again under PYTHONHASHSEED=0 unless a hash seed is
set.  Each item's summary is then taken again in an untraced pass; the
script exits 1 when one differs from the traced one.  It is opt-in:
pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from collections import Counter
from pathlib import Path

from scan import ROOT

WARMUP_ITEMS = 3  # as `bench/run.py`'s warm-up
TOP = 5


def _workloads():
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    return workloads.WORKLOADS


def _run(w, inp):
    """The item's outputs; None for a `CarrierTooLarge` refusal."""
    from polab.errors import CarrierTooLarge

    try:
        return w.run(inp)
    except CarrierTooLarge:
        return None


def _summary(w, out):
    """The summary of an item's outputs as `bench/run.py` digests it."""
    return repr(("gated",) if out is None else w.summary(out))


def count(run):
    """Run `run()` under an opcode trace; its opcode events per code object."""
    counts = Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return counts


def measure(w, seed, seconds):
    """The seed's `seconds` pool of workload `w`, warmed up as
    `bench/run.py` warms up: its item count, the opcode events of one
    `run` of every item per code object, and the indices of the items
    whose summary an untraced pass changes."""
    rng = random.Random(seed)
    pool = w.pool(rng, seconds)
    for k in range(len(pool), len(pool) + WARMUP_ITEMS):
        _run(w, w.draw(rng, k))
    outs = []
    counts = count(lambda: outs.extend(_run(w, inp) for inp in pool))
    traced = [_summary(w, out) for out in outs]
    changed = [k for k, inp in enumerate(pool) if _summary(w, _run(w, inp)) != traced[k]]
    return len(pool), counts, changed


def _label(code):
    path = Path(code.co_filename)
    if ROOT in path.resolve().parents:
        path = path.resolve().relative_to(ROOT)
    return "%s:%d %s" % (path, code.co_firstlineno, code.co_qualname)


def main(argv=None):
    if "PYTHONHASHSEED" not in os.environ:
        sys.stdout.flush()
        os.execve(sys.executable, sys.orig_argv, dict(os.environ, PYTHONHASHSEED="0"))
    workloads = _workloads()
    ap = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    ap.add_argument("--workload", choices=["all", *workloads], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=4.0)
    args = ap.parse_args(argv)
    names = list(workloads) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        items, counts, changed = measure(workloads[name], args.seed, args.seconds)
        print("%s  items %d  opcodes %d" % (name, items, sum(counts.values())))
        for code, n in counts.most_common(TOP):
            print("  %12d  %s" % (n, _label(code)))
        if changed:
            print("  summaries differ untraced at items %s" % changed)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
