#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload stencil --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes
    python3 perfbench/run.py --selftest            # the arithmetic tests

Run from the repository root. The perfbench program is built from source into
.bench_build/perfbench (RelWithDebInfo); results with host context and spans
go to .bench_build/results/. The last line of standard output is the
program's JSON result; its metric names are checked against BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def build(target):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                fail("configure failed; see " + log_path)
        jobs = str(min(os.cpu_count() or 1, 4))
        cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail("build failed; see " + log_path)
    return os.path.join(BUILD, target)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_one(binary, workload, seed, seconds, trace, sha):
    """Runs perfbench once; returns (exit code, stdout text)."""
    os.makedirs(RESULTS, exist_ok=True)
    out_file = os.path.join(
        RESULTS, "%s-seed%d-trace%d.json" % (workload, seed, trace))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", sha, "--out", out_file]
    # Own process group: perfbench forks one child per repeat, and a
    # timeout must stop all of them.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S), 1)
    return proc.returncode, out


def check_result(out, spec, trace):
    """Parses the last line and checks its metric names against the spec."""
    lines = out.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing", 1)
    result = json.loads(lines[-1])
    if spec is not None:
        want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
        got = list(result["metrics"])
        if got != want:
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
                 % (sorted(set(want) - set(got)),
                    sorted(set(got) - set(want))), 1)
    return result


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=spec["run_seconds"] if spec else 10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        test = build("perfbench_arith_test")
        sys.exit(subprocess.call([test]))
    if not args.workload:
        fail("--workload is required")

    binary = build("perfbench")
    sha = commit()
    if args.workload != "all":
        code, out = run_one(binary, args.workload, args.seed, args.seconds,
                            args.trace, sha)
        sys.stdout.write(out)
        sys.stdout.flush()
        if code != 0:
            sys.exit(code)
        check_result(out, spec, args.trace)
        return

    if spec is None:
        fail("--workload all needs BENCHMARK.json")
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run_one(binary, w, args.seed, args.seconds, trace,
                                sha)
            sys.stdout.write(out)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                summary["correct"] = False
                continue
            result = check_result(out, spec, trace)
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                summary["metrics"][w + "/" + name] = m
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] else 1)


if __name__ == "__main__":
    main()
