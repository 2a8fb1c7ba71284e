#!/usr/bin/env python3
"""Build and run one workload of the cllm benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Builds perfbench/ together with the libraries under src/ (Release)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset, then runs the workload and relays its output. The
last line of stdout is the result JSON. Exits non-zero without a
result when the sources are missing, the build fails, or the output
does not match BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the cllm sources (src/) are not next to perfbench/", 2)
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs, "--target", "cllm_perfbench"],
    ]
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                die("build timed out: " + " ".join(cmd))
            except OSError as e:
                die("cannot run %s: %s" % (cmd[0], e))
            if r.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))
    return os.path.join(out, "cllm_perfbench")


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0", 2)

    binary = build(build_dir())
    # The benchmark sets each workload's thread count and tracing itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CLLM_")}
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("workload timed out after %d s" % RUN_TIMEOUT_S)
    if r.returncode != 0:
        die("benchmark exited with code %d" % r.returncode)

    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        die("no result line in the benchmark's output")
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("result keys differ from the contract")
    if want is not None and got != want:
        die("metrics differ from BENCHMARK.json: %s" %
            sorted(set(got.items()) ^ set(want.items())))
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
