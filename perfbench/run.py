#!/usr/bin/env python3
"""Repository benchmark: builds the measurement engine, runs one workload and
prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The engine (perfbench/src, linked against the
simulator sources in src/) is built with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). With --trace 0 the last stdout line carries
the end-to-end metrics, with --trace 1 the per-layer ones. Lines before it are
a human-readable summary; the full record, with the host description and raw
samples, is written under the build directory's results/ folder.

Exit status: 0 when every run passed its checks, 1 when one failed (the
result line is still printed), 2 when the benchmark could not run at all.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
ENGINE_TIMEOUT_S = 170

# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "sim_mips": ("Minstr/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# The model checkers' fingerprint, checked in Ocean's traced pass.
MODEL_PIN = "model_wti3"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build_engine():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "ccnoc_perfbench")


def run_engine(exe, args, spans_path):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=ENGINE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("engine exceeded %d s" % ENGINE_TIMEOUT_S)
    if proc.returncode != 0:
        fail("engine exited with status %d" % proc.returncode)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        fail("engine printed no result")


def check_outcomes(raw, pins):
    """Returns (attempted, failures): one entry per whole-job run.

    A run fails when the engine reports an error (oracle, checker, parallel
    identity) or its fingerprint disagrees with its pin (the default-seed
    reference, every sample when the seed is the default, the model
    checkers) or with the other runs of the same seed in this process.
    """
    pin = pins[raw["workload"]]
    same_seed = raw["samples"] if "samples" in raw else raw["untraced"] + raw["traced"]
    runs = [("reference", raw["reference"], pin)]
    runs += [("sample", o, pin if raw["seed"] == DEFAULT_SEED else None) for o in same_seed]
    runs += [("platform", o, None) for o in raw.get("platform", [])]
    if raw.get("model") is not None:
        runs.append(("model", raw["model"], pins[MODEL_PIN]))
    failures = []
    for i, (kind, o, want) in enumerate(runs):
        if o["error"]:
            failures.append("%s %d: %s" % (kind, i, o["error"]))
        elif want is not None and o["fingerprint"] != want:
            failures.append("%s %d: fingerprint %s != pinned %s" % (kind, i, o["fingerprint"], want))
        elif kind == "sample" and o["fingerprint"] != same_seed[0]["fingerprint"]:
            failures.append("%s %d: fingerprint differs from the first run of this seed" % (kind, i))
    return len(runs), failures


def median(values):
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2


def tail(values, better):
    """The highest percentile on the metric's worse side that has at least
    ten samples beyond it, as (percentile, value); None below 11 samples."""
    v = sorted(values, reverse=(better == "higher"))
    n = len(v)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, v[n - 11]


def end_to_end(raw):
    samples = raw["samples"]
    series = {
        "wall_s": [s["wall_s"] for s in samples],
        "sim_mips": [s["work"] / s["run_s"] / 1e6 for s in samples],
        "setup_s": [s["setup_s"] for s in samples],
        "peak_rss_mb": [raw["peak_rss_mb"]],
    }
    metrics, summary = {}, {}
    for name, (unit, better) in END_TO_END.items():
        metrics[name] = {"value": median(series[name]), "unit": unit}
        summary[name] = {"median": metrics[name]["value"], "unit": unit,
                         "samples": len(series[name]), "tail": tail(series[name], better)}
    return metrics, summary


def host_block(raw, load_before):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": raw["build"]["compiler"],
        "build_type": raw["build"]["build_type"],
        "git_commit": commit,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    pins_path = os.path.join(HERE, "pins.json")
    try:
        with open(pins_path) as f:
            pins = json.load(f)["fingerprints"]
        pins[args.workload], pins[MODEL_PIN]
    except (OSError, ValueError, KeyError) as e:
        fail("cannot read the pins for %s from %s: %s" % (args.workload, pins_path, e))

    exe = build_engine()
    load_before = os.getloadavg()
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    spans_path = os.path.join(results, stem + "-spans.json") if args.trace else None
    t0 = time.monotonic()
    raw = run_engine(exe, args, spans_path)
    attempted, failures = check_outcomes(raw, pins)

    if args.trace:
        metrics, summary = raw["layers"], None
    else:
        metrics, summary = end_to_end(raw)
    host = host_block(raw, load_before)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "host": host, "attempted": attempted, "failures": failures,
              "fail_ratio": len(failures) / attempted, "metrics": metrics,
              "summary": summary, "raw": raw}
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    print("# %s seed=%d trace=%d  %.1f s" % (args.workload, args.seed, args.trace,
                                             time.monotonic() - t0))
    print("# host " + json.dumps(host))
    for msg in failures:
        print("# FAILED " + msg)
    print("# fail_ratio %d/%d = %g" % (len(failures), attempted, len(failures) / attempted))
    if summary:
        for name, s in summary.items():
            t = "" if s["tail"] is None else "  p%.0f %.6g" % s["tail"]
            print("# %-12s median %.6g %s  (n=%d)%s" % (name, s["median"], s["unit"],
                                                      s["samples"], t))
    else:
        for name, m in metrics.items():
            print("# %-34s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
