#!/usr/bin/env python3
"""Builds and runs the same-host benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The first run configures and builds
perfbench/ (and the simulator sources it compiles) into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later runs only check the build. The
benchmark's report goes to stdout and its last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list;
any other set is an error. Build output goes to stderr. Exits non-zero,
without a result line, when the build or the run fails.
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
RUN_BUDGET_S = 175  # the whole invocation must end within 180 s once built
BUILD_BUDGET_S = 850


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "cpc_perfbench",
                 "-j", jobs]):
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_BUDGET_S)
    return os.path.join(build_dir, "cpc_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_result(line):
    if not line.startswith("RESULT "):
        raise ValueError("the benchmark printed no RESULT line")
    result = json.loads(line[len("RESULT "):])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise ValueError("nothing was attempted")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.SubprocessError, OSError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1
    started = time.monotonic()

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    # The simulator reads CPC_* variables (audit stride, trace-cache budget,
    # memory fill); the benchmark always measures the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CPC_")}
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_BUDGET_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("perfbench: benchmark exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    try:
        result = parse_result(lines[-1])
        want = expected_metrics(args.trace)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            raise ValueError("metrics differ from BENCHMARK.json: missing %s, extra %s,"
                             " unit mismatch %s" % (
                                 sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                                 sorted(n for n in got if n in want and got[n] != want[n])))
    except (ValueError, KeyError, OSError) as error:
        sys.stderr.write(proc.stdout)
        print("perfbench: %s" % error, file=sys.stderr)
        return 1

    print("\n".join(lines[:-1]))
    print("  run %.1f s after the build check" % (time.monotonic() - started))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
