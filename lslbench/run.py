#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 lslbench/run.py --workload small_4k --seed 1 --seconds 20 --trace 0
    python3 lslbench/run.py --selftest

Run from the repository root. The first run configures and builds
lslbench/ (and the repository's libraries under src/) into
.bench_build/lslbench; later runs rebuild only what changed. Build output
goes to stderr, so the last line of stdout is the result: one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 prints the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics; a
result that names any other set is refused.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lslbench")
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    try:
        if args.selftest:
            return subprocess.run([build("lslbench_selftest")], cwd=BUILD,
                                  timeout=600).returncode
        if not args.workload:
            ap.error("--workload is required")
        binary = build("lslbench")
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"run.py: lslbench exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    expected = declared_metrics(args.trace)
    if list(result["metrics"]) != expected:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print("run.py: the result's metrics differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
