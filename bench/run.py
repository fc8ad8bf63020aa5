"""polab benchmark: one seeded workload per process, or all three.

    python3 bench/run.py --workload grade --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0

Run from the root of a checkout; the package is imported from `src/`
next to this directory.  With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it times the same pool under the
outside-in tracer and reports the per-layer metrics, and the tracing
overhead against an untraced run of the pool in a separate process.
The last line of standard output is one JSON object; a readable report
precedes it, and the raw per-item records (and spans, when traced) go
to `.bench_out/`.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("grade", "complete", "transfer")
LOAD_AT_START = os.getloadavg()
SETUP_REPEATS = 3
WARMUP_ITEMS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_hash_seed():
    """Re-run under a fixed PYTHONHASHSEED unless one is set, so that set
    iteration order, and with it search order, repeats between runs."""
    if "PYTHONHASHSEED" not in os.environ:
        env = dict(os.environ, PYTHONHASHSEED="0")
        sys.stdout.flush()
        os.execve(sys.executable, sys.orig_argv, env)


def import_package():
    if not (SRC / "polab" / "__init__.py").is_file():
        sys.exit("bench: no package at %s; run from a polab checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import polab

    if Path(polab.__file__).resolve().parent != SRC / "polab":
        sys.exit("bench: imported polab from %s, not %s" % (polab.__file__, SRC))


# -- metadata --------------------------------------------------------------


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args):
    return {
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": LOAD_AT_START,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "optimize": sys.flags.optimize,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- timed loop ------------------------------------------------------------


class Run:
    """Items timed one by one; verdicts checked outside the timed call."""

    def __init__(self, workload, pool, clock, tracer=None):
        from polab import errors

        self.w = workload
        self.pool = pool
        self.clock = clock
        self.tracer = tracer
        self.too_large = errors.CarrierTooLarge
        self.records = []
        self.summaries = []
        self.failures = []
        self.gate_notes = 0
        self.carrier_too_large = 0

    def item(self, k, inp):
        w = self.w
        out = error = None
        if self.tracer is not None:
            self.tracer.start_item(k)
        t0 = time.perf_counter()
        try:
            out = w.run(inp)
        except self.too_large:
            error = "CarrierTooLarge"
        except Exception:  # noqa: BLE001 - any other error fails the item
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.enabled = False
        gated = error == "CarrierTooLarge"
        if gated:
            self.carrier_too_large += 1
            summary = ("gated",)
            fails = []
        elif error is not None:
            summary = ("error",)
            fails = [error]
        else:
            gated = w.gated(out)
            self.gate_notes += w.gate_notes(out)
            self.carrier_too_large += w.refusals(out)
            summary = w.summary(out)
            fails = w.check(k, inp, out)
        self.summaries.append(summary)
        if self.tracer is not None:
            self.tracer.enabled = True
        if fails:
            self.failures.append((k, fails))
        self.records.append(
            {
                "k": k,
                "base": inp["base"],
                "carrier": inp["carrier"],
                "at": t0 + dt / 2,
                "time_s": dt,
                "gated": gated,
                "failed": bool(fails),
            }
        )
        self.clock.tick()

    def one_pass(self):
        """Time every item once, then add the reference-speed times."""
        for k, inp in enumerate(self.pool):
            self.item(k, inp)
        self.clock.sample(speed.WIDTH)
        for r in self.records:
            r["ref_s"] = r["time_s"] * self.clock.scale(r["at"])

    def digest(self):
        return hashlib.sha256(repr(self.summaries).encode()).hexdigest()[:16]


def warm_up(workload, rng, first):
    """Run a few inputs drawn after the pool once, untimed and unchecked,
    so that no pool item runs before it is timed."""
    from polab import errors

    for k in range(first, first + WARMUP_ITEMS):
        try:
            workload.run(workload.draw(rng, k))
        except errors.CarrierTooLarge:
            pass


HD_STEPS = 8


def quantile(values, p):
    """The Harrell-Davis estimate of the p-quantile: a Beta-weighted
    mean of all order statistics.  Item costs cluster by input
    shape, and one order statistic can fall on either side of a gap
    between two clusters from one run to the next; the weighted mean
    moves smoothly across it."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):
        w = 0.0
        for s in range(HD_STEPS):
            x = (i + (s + 0.5) / HD_STEPS) / n
            w += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(records, setup):
    """Timings at the reference speed, then as measured (`wall_`)."""
    n = len(records)
    out = {}
    for prefix, key, setup_s in (("", "ref_s", setup[0]), ("wall_", "time_s", setup[1])):
        times = [r[key] for r in records]
        out[prefix + "items_per_s"] = (n / sum(times), "1/s")
        out[prefix + "item_p50_ms"] = (quantile(times, 0.5) * 1e3, "ms")
        out[prefix + "item_p90_ms"] = (quantile(times, 0.9) * 1e3, "ms")
        out[prefix + "item_p99_ms"] = (quantile(times, 0.99) * 1e3, "ms")
        out[prefix + "setup_s"] = (setup_s, "s")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    out["fail_frac"] = (sum(r["failed"] for r in records) / n, "frac")
    out["gated_frac"] = (sum(r["gated"] for r in records) / n, "frac")
    return out


# Reported in the JSON line; the rest of end_to_end() is printed only.
JSON_END_TO_END = ("items_per_s", "item_p50_ms", "item_p90_ms", "setup_s", "peak_rss_mb")


def run_one(args, start):
    """Set up, warm up and time the pool once, traced or not, in this
    process; `start` is when set-up began."""
    import workloads

    imported = time.perf_counter()
    import_s = imported - start
    clock = speed.Speed()
    w = workloads.WORKLOADS[args.workload]
    gen = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        rng = random.Random(args.seed)
        pool = w.pool(rng, args.seconds)
        gen.append((t, time.perf_counter() - t))
        clock.sample(speed.WIDTH)
    setup = (
        import_s * clock.scale(imported)
        + statistics.median(dt * clock.scale(t + dt / 2) for t, dt in gen),
        import_s + statistics.median(dt for _, dt in gen),
    )
    meta = metadata(args)
    meta.update(import_s=import_s, generate_s=[dt for _, dt in gen], pool_items=len(pool))

    warm_up(w, rng, len(pool))
    tr = tracing.Tracer() if args.trace else None
    run = Run(w, pool, clock, tr)
    t = time.perf_counter()
    if tr is not None:
        tr.install()
    try:
        run.one_pass()
    finally:
        if tr is not None:
            tr.uninstall()
    meta["wall_s"] = time.perf_counter() - t
    meta["speed"] = clock.summary()
    e2e = end_to_end(run.records, setup)
    out = {"meta": meta, "digest": run.digest(), "end_to_end": e2e, "per_layer": {}}
    if tr is not None:
        out["end_to_end"] = {}
        out["per_layer"] = layer = tr.metrics()
        layer["extend.gate_notes"] = (run.gate_notes, "count")
        layer["gate.carrier_too_large"] = (run.carrier_too_large, "count")
        out["spans"] = tr.write_spans(raw_path(args.workload, args.seed, 1).with_suffix(".spans"))
    out["records"] = run.records
    out["failures"] = run.failures[:20]
    return out, run


def add_overhead(out, run, plain):
    """Compare the traced pass with the untraced run `plain` of the same
    pool: its throughput gives the tracing overhead, and its digest must
    be the same."""
    traced = len(run.records) / sum(r["ref_s"] for r in run.records)
    untraced = plain["metrics"]["items_per_s"]["value"]
    layer = out["per_layer"]
    layer["trace.untraced_items_per_s"] = (untraced, "1/s")
    layer["trace.traced_items_per_s"] = (traced, "1/s")
    layer["trace.overhead_frac"] = (untraced / traced - 1, "frac")
    if plain["digest"] != out["digest"]:
        out["failures"].append((-1, ["traced digest %s, untraced %s" % (out["digest"], plain["digest"])]))


def report(out):
    meta = out["meta"]
    print(
        "workload %s  seed %d  items %d  digest %s"
        % (meta["workload"], meta["seed"], meta["pool_items"], out["digest"])
    )
    print(
        "  python %s  commit %s  nproc %d  load %.2f  PYTHONHASHSEED=%s  src lines %d"
        % (
            meta["python"],
            meta["commit"][:12],
            meta["nproc"],
            meta["loadavg_start"][0],
            meta["pythonhashseed"],
            meta["src_lines"],
        )
    )
    for section in ("end_to_end", "per_layer"):
        for name, (value, unit) in out[section].items():
            print("  %-48s %14.6g %s" % (name, value, unit))
    for k, fails in out["failures"][:5]:
        print("  FAILED item %d: %s" % (k, "; ".join(f.strip().splitlines()[-1] for f in fails)))


def raw_path(workload, seed, trace):
    return OUT / ("%s-seed%d-trace%d.json" % (workload, seed, trace))


def write_raw(out, args):
    raw_path(args.workload, args.seed, args.trace).write_text(json.dumps(out, default=str))


def result_line(out, run):
    section = out["per_layer"] if out["meta"]["trace"] else {
        k: out["end_to_end"][k] for k in JSON_END_TO_END
    }
    failed = sum(r["failed"] for r in run.records)
    return json.dumps(
        {
            "correct": not out["failures"],
            "attempted": len(run.records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in section.items()},
        }
    )


def child(args, workload, trace):
    """Run one workload in a fresh process; returns its report lines and
    its result."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("bench: workload %s exited with %d" % (workload, proc.returncode))
    return lines[:-1], json.loads(lines[-1])


def run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        lines, res = child(args, name, args.trace)
        print("\n".join(lines))
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"]["%s.%s" % (name, k)] = v
    print(json.dumps(merged))


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    pin_hash_seed()
    import_package()
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        run_all(args)
        return 0
    start = PROCESS_T0
    if args.trace:
        # The untraced pass runs first, in a process of its own, so that
        # neither pass finds anything the other left in memory.
        _, plain = child(args, args.workload, 0)
        plain["digest"] = json.loads(raw_path(args.workload, args.seed, 0).read_text())["digest"]
        start = time.perf_counter()
    out, run = run_one(args, start)
    if args.trace:
        add_overhead(out, run, plain)
    report(out)
    write_raw(out, args)
    print(result_line(out, run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
