"""Machine speed, sampled with a fixed reference loop beside the timed work.

On the shared two-vCPU virtual machine the benchmark was tuned on
(Python 3.11.7), speed drifts by 20-40% over seconds to minutes: one
`transfer` seed run five times in a row gave 11.1 to 15.3 items per
second.  So the benchmark times a fixed chunk of interpreter work every
tenth of a second, and reports each timing also scaled to a reference
speed, at which one chunk takes `REF_SECONDS`:

    reference time = measured time * REF_SECONDS / (local chunk time)

where the local chunk time is the median of the chunks timed closest
before and after the measurement.  The chunk shares no code with the
package, so a change to the package cannot move it.  Wall-clock figures
are reported next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_SECONDS = 0.0015
EVERY = 0.1
WIDTH = 3


def chunk():
    """Fixed pure-Python work of the kind the package does: bit-row
    closure sweeps, tuple hashing and a small dict."""
    rows = [(1 << i) | ((i * 40503) & 0xFFF) for i in range(12)]
    table = {}
    for rep in range(80):
        for k in range(12):
            bit, rk = 1 << k, rows[k]
            for i in range(12):
                if rows[i] & bit:
                    rows[i] |= rk
        key = tuple(rows)
        table[key] = table.get(key, 0) + rep
        rows = [(((r * 2654435761) >> 3) & 0xFFF) | (1 << i) for i, r in enumerate(rows)]
    return len(table)


class Speed:
    def __init__(self):
        self.starts = []
        self.costs = []
        chunk()  # the first, cold chunk is not kept
        self.sample(WIDTH)

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            chunk()
            t1 = time.perf_counter()
            self.starts.append(t0)
            self.costs.append(t1 - t0)
        self.last = time.perf_counter()

    def tick(self):
        """Sample once `EVERY` seconds have passed since the last sample."""
        if time.perf_counter() - self.last >= EVERY:
            self.sample()

    def scale(self, t):
        """The factor turning a time measured around `t` into reference
        time."""
        j = bisect.bisect(self.starts, t)
        near = self.costs[max(0, j - WIDTH) : j + WIDTH]
        return REF_SECONDS / statistics.median(near)

    def summary(self):
        return {
            "chunks": len(self.costs),
            "chunk_ms_median": statistics.median(self.costs) * 1e3,
            "chunk_ms_min": min(self.costs) * 1e3,
            "chunk_ms_max": max(self.costs) * 1e3,
        }
