"""Reproduce the reference class counts the `transfer` quotas come from.

    python3 bench/calibrate.py

Draws the reference sample named in `workloads.py` (3000 contexts, fixed
seed 123, base sizes 1..3 cycled) and prints its class counts next to
the tables the workload uses, so a change to `polab.randgen` that
shifts them shows.  Exits 1 when they differ.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from polab import randgen  # noqa: E402

import workloads as W  # noqa: E402


def main():
    rng = random.Random(123)
    sweeps, adjunctions = Counter(), Counter()
    for k in range(3000):
        ctx = randgen.random_context(rng, 1 + k % 3)
        sweeps[W.sweep_class(ctx)] += 1
        adjunctions[W.adjunction_class(ctx)] += 1
    ok = True
    for label, got, want in (
        ("transfer sweeps", sweeps, W.TRANSFER_SWEEPS),
        ("transfer adjunctions", adjunctions, W.TRANSFER_ADJUNCTIONS),
    ):
        same = {c: n for c, n in got.items() if c in want} == want
        ok &= same
        print("%s: %s%s" % (label, dict(sorted(got.items(), key=str)), "" if same else "  (tables differ)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
