#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Checks, on short runs of ocean64_mesi_smp:
  1. a corrupted pinned fingerprint is counted as a failed run, on the
     default seed and on a held-out one;
  2. every metric name and unit printed matches BENCHMARK.json, in both the
     untraced (end-to-end) and traced (per-layer) passes;
  3. the traced and untraced passes produce identical fingerprints;
  4. in a directory holding only BENCHMARK.json and perfbench/, the benchmark
     exits non-zero without printing a result.
Scratch files go under the benchmark's build directory.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark itself: build_dir, DEFAULT_SEED)

WORKLOAD = "ocean64_mesi_smp"


def bench(*extra, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", WORKLOAD, "--seconds", "1"] + list(extra)
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return p.returncode, result


def record(seed, trace):
    path = os.path.join(run.build_dir(), "results",
                        "%s-seed%d-trace%d.json" % (WORKLOAD, seed, trace))
    with open(path) as f:
        return json.load(f)


def expect(cond, msg, failures):
    print(("ok    " if cond else "FAIL  ") + msg)
    if not cond:
        failures.append(msg)


def main():
    failures = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seed = run.DEFAULT_SEED

    # 2 and 3: a clean default-seed run of each pass.
    code0, res0 = bench("--seed", str(seed), "--trace", "0")
    code1, res1 = bench("--seed", str(seed), "--trace", "1")
    expect(code0 == 0 and res0 is not None and res0["correct"], "untraced pass succeeds", failures)
    expect(code1 == 0 and res1 is not None and res1["correct"], "traced pass succeeds", failures)
    for res, key in ((res0, "end_to_end"), (res1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {} if res is None else {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == want, "printed %s metric names and units match BENCHMARK.json" % key,
               failures)
        if res is not None:
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   "result line has exactly the four result keys", failures)
    if code0 == 0 and code1 == 0:
        untraced = {s["fingerprint"] for s in record(seed, 0)["raw"]["samples"]}
        raw1 = record(seed, 1)["raw"]
        traced = {s["fingerprint"] for s in raw1["traced"]}
        plain = {s["fingerprint"] for s in raw1["untraced"]}
        expect(len(untraced) == 1 and untraced == traced == plain,
               "traced and untraced passes give identical fingerprints", failures)

    # 1: a corrupted pin, on the default seed and on a held-out seed (where
    # the default-seed reference run carries the pin check).
    code2, _ = bench("--seed", str(seed + 1), "--trace", "0")
    expect(code2 == 0, "held-out seed %d passes" % (seed + 1), failures)
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)["fingerprints"]
    good = pins[WORKLOAD]
    pins[WORKLOAD] = ("0" if good[0] != "0" else "1") + good[1:]
    for s in (seed, seed + 1):
        if code0 == 0 and code2 == 0:
            _, bad = run.check_outcomes(record(s, 0)["raw"], pins)
            expect(len(bad) >= 1,
                   "corrupted fingerprint counts as a failed run (seed %d)" % s, failures)

    # 4: no simulator sources next to the benchmark.
    bare = os.path.join(run.build_dir(), "selftest", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, res = bench("--seed", str(seed), "--trace", "0", cwd=bare,
                      script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and res is None, "without the sources it exits non-zero, no result",
           failures)

    print("%d failed" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
