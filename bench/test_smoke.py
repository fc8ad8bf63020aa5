"""Smoke test of the benchmark at tiny item counts.

    python3 -m pytest -q bench/test_smoke.py

Every workload runs traced and untraced on a few items (`--seconds
0.4`); the verdict digest must not depend on PYTHONHASHSEED; no self
time may be negative; and without the package next to it the benchmark
must fail without printing a result.  The raw records go to
`.bench_out/`, as in any run; the package-less copy goes to
`.bench_out/smoke/`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SECONDS = "0.4"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    cmd = [sys.executable, *SPEC["command"][1:], "--seconds", SECONDS, *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def raw(name, seed, trace):
    return json.loads((OUT / ("%s-seed%d-trace%d.json" % (name, seed, trace))).read_text())


def test_traced_run_reports_every_layer_metric():
    wanted = {m["name"] for m in SPEC["per_layer"]}
    for name in NAMES:
        res = result(bench("--workload", name, "--seed", "5", "--trace", "1"))
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == wanted
        for key, metric in res["metrics"].items():
            if key.endswith(".self_s"):
                assert metric["value"] >= 0, key
        data = raw(name, 5, 1)
        assert len(data["records"]) == res["attempted"]
        spans = data["spans"]
        size = (OUT / spans["file"]).stat().st_size
        assert spans["count"] > 0 and size == 8 * len(spans["fields"]) * spans["count"]
        for r in data["records"]:
            assert r["base"] >= 1 and r["carrier"] >= 2


def test_one_command_prints_every_end_to_end_metric():
    res = result(bench("--workload", "all", "--seed", "5", "--trace", "0"))
    assert res["correct"]
    for name in NAMES:
        for metric in SPEC["end_to_end"]:
            got = res["metrics"]["%s.%s" % (name, metric["name"])]
            assert got["unit"] == metric["unit"] and got["value"] > 0


def test_digest_depends_only_on_the_seed():
    for name in NAMES:
        digests = set()
        for hashseed in ("0", "1", "7"):
            result(bench("--workload", name, "--seed", "9", hashseed=hashseed))
            digests.add(raw(name, 9, 0)["digest"])
        assert len(digests) == 1, (name, digests)


def test_fails_without_the_package():
    bare = OUT / "smoke"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "0", cwd=bare)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
