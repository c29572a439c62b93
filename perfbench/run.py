#!/usr/bin/env python3
"""perfbench entry point: build from source, run one workload, check output.

Usage (from the repository root):

    python3 perfbench/run.py --workload pbft-open --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Builds perfbench/CMakeLists.txt (the repo's library tree with its default
build settings, plus the perfbench binary) into $CARGO_TARGET_DIR, or
.bench_build when unset, then runs the binary once for one workload in
its own process. The binary's last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; this script checks that line
and exits non-zero when the build, the run or an output check fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pbft-open", "pbft-failover", "pop-burst")
RUN_TIMEOUT_S = 175
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 1


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    """Configures once, then brings the binary up to date."""
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", out]
        if subprocess.call(cfg, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    cmd = ["cmake", "--build", out, "--target", "perfbench", "-j", str(BUILD_JOBS)]
    return subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) == 0


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(res["failed"], int) or res["failed"] < 0:
        return "failed must be a whole number"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(res["metrics"]) != want:
        return "metrics do not match BENCHMARK.json"
    if res["correct"] is not True:
        return "output checks failed"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the sensitivity self-test instead of a workload")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("no repository source tree next to perfbench/; nothing to build")
    out = build_dir()
    if not build(out):
        return fail("build failed")
    exe = os.path.join(out, "perfbench")
    cmd = [exe, "--data-dir", HERE]
    if args.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if args.selftest:
        print("\n".join(lines))
        return proc.returncode
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        return fail(f"perfbench exited with {proc.returncode}")
    problem = check_result(lines[-1], args.trace == 1)
    if problem:
        sys.stderr.write(proc.stdout)
        return fail(problem)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
