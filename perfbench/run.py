#!/usr/bin/env python3
"""Builds and runs the SoftMoW end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
SoftMoW libraries and the driver (perfbench/softmow_perf.cpp) into
$CARGO_TARGET_DIR (default .bench_build); later runs rebuild incrementally.
Build output goes to stderr. The driver's report goes to stdout and its last
line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

This script also checks that the metric set matches BENCHMARK.json and that
the seed-determined operation counts repeat exactly: the first run of a
(driver binary, workload, seed, seconds) records them under the build
directory, and any later run of the same binary whose counts differ is
reported as incorrect.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_build", "bearer_churn", "mobility_maintenance")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "softmow_perf", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "softmow_perf")


def check_counts(build_dir, binary, args, counts):
    """True when `counts` match the first run of this driver binary at this
    workload/seed/seconds. Keying by the binary's content hash compares runs
    of the same code only: a source change that moves a count starts afresh."""
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(build_dir, "counts",
                        f"{args.workload}-{args.seed}-{args.seconds}-{digest}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(counts, f, indent=1, sort_keys=True)
        return True
    with open(path) as f:
        recorded = json.load(f)
    if recorded == counts:
        return True
    changed = sorted(k for k in set(recorded) | set(counts) if recorded.get(k) != counts.get(k))
    print(f"counts differ from the recorded run at this seed: {', '.join(changed)}")
    return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, f"{args.workload}-{args.seed}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    counts = {}
    for line in lines[:-1]:
        print(line)
        if line.startswith("COUNTS "):
            counts = json.loads(line[len("COUNTS "):])

    expected = spec["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in expected}:
        fail("metric set differs from BENCHMARK.json")
    for m in expected:
        if got[m["name"]]["unit"] != m["unit"]:
            fail(f"unit of {m['name']} differs from BENCHMARK.json")
    if not check_counts(build_dir, binary, args, counts):
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
