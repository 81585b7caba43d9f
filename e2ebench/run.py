#!/usr/bin/env python3
"""End-to-end dataset-production benchmark: entry point.

Run from the repository root:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Builds the harness, syn_daemon and syn_coordinator from source as a
Release build (under $CARGO_TARGET_DIR, default .bench_build), runs one
workload, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer
ones. A run whose output checks fail prints correct=false with no
numbers and exits 1. "--workload all" runs every workload and prints a
table of every metric by workload, name and unit.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_TIMEOUT_S = 170


def fail(message, code=2):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "e2ebench")


def build():
    """Configures (once) and builds the harness and the two daemons."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no SynCircuit sources next to " + HERE)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", out, "-j", jobs, "--target",
            "e2ebench", "syn_daemon", "syn_coordinator"]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out


def source_id():
    """git HEAD when available, else a hash of the sources."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "examples", "e2ebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def run_harness(out, workload, seed, seconds, trace):
    """Runs one workload; returns (harness result dict, passthrough lines)."""
    work = os.path.join(out, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(out, "e2ebench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--bin-dir", os.path.join(out, "syncircuit", "examples"),
           "--work-dir", work, "--commit", source_id()]
    # Own session, so a timeout can stop the harness and every daemon it
    # spawned together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out" % workload, 1)
    finally:
        # Whatever the harness left behind (it stops its daemons itself;
        # this covers a crash).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(work, ignore_errors=True)
        os.sync()  # so the next run does not inherit this one's file churn
    lines = stdout.splitlines()
    if proc.returncode == 3:
        fail("harness refused to record (not a Release build)", 1)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s: harness exited %d without a result" % (workload,
                                                        proc.returncode), 1)
    return result, lines[:-1]


def select_metrics(result, wanted):
    """The BENCHMARK.json metrics, in its order, checked against the units
    the harness reported. A per-layer metric whose layer is not on this
    workload's path is absent from the harness output and reads 0."""
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None:
            got = {"value": 0.0, "unit": spec["unit"]}
        if got["unit"] != spec["unit"]:
            fail("%s reported in %s, BENCHMARK.json says %s" % (
                spec["name"], got["unit"], spec["unit"]), 1)
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return metrics


def run_one(bench, out, workload, seed, seconds, trace):
    result, lines = run_harness(out, workload, seed, seconds, trace)
    wanted = bench["per_layer" if trace else "end_to_end"]
    for line in lines:
        print(line)
    if not result["correct"]:
        print("# output check failed: " + result.get("error", ""))
        return {"correct": False, "attempted": result["attempted"],
                "failed": max(result["failed"], 1), "metrics": {}}
    return {"correct": True, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": select_metrics(result, wanted)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        fail("no BENCHMARK.json at " + ROOT)
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    out = build()

    if args.workload != "all":
        summary = run_one(bench, out, args.workload, args.seed, seconds,
                          args.trace)
        print(json.dumps(summary))
        sys.exit(0 if summary["correct"] else 1)

    rows, ok = [], True
    for name in names:
        summary = run_one(bench, out, name, args.seed, seconds, args.trace)
        ok = ok and summary["correct"]
        if not summary["correct"]:
            rows.append((name, "output check", "FAILED", ""))
        for metric, m in summary["metrics"].items():
            rows.append((name, metric, "%.6g" % m["value"], m["unit"]))
    width = [max(len(r[i]) for r in rows) for i in range(4)]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, width)).rstrip())
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
