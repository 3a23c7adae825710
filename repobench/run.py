#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 repobench/run.py --workload evolve|extent|serve --seed N \
        --seconds S --trace 0|1
    python3 repobench/run.py --self-test

The first form builds the engine and the benchmark binary from source (into
.bench_build/repobench under the checkout root, incrementally), runs one
workload, and relays the binary's output: human-readable lines prefixed
with '#', then one JSON result as the last line. With --trace 1 the spans of
the traced half-run are written to .bench_out/. The exit status is the
binary's: non-zero when an output check fails or the build fails, in which
case no result line is printed.

--self-test runs every workload at smoke size and checks that each metric
named in BENCHMARK.json prints with its unit, and that a deliberately wrong
reference trips each workload's output check.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "repobench")
BINARY = os.path.join(BUILD_DIR, "repobench")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("engine sources (src/) not found next to the benchmark")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "repobench"])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def run_binary(args, capture=False):
    """Runs the benchmark binary from the checkout root with a private scratch dir."""
    scratch = os.path.join(".bench_tmp", str(os.getpid()))
    command = [BINARY] + args + ["--scratch-dir", scratch]
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                stdout=subprocess.PIPE if capture else None,
                                stderr=subprocess.PIPE if capture else None,
                                text=True)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 124, "", ""
    finally:
        shutil.rmtree(os.path.join(ROOT, scratch), ignore_errors=True)
    return result.returncode, result.stdout or "", result.stderr or ""


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, out, err = run_binary(
                ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", trace, "--smoke"], capture=True)
            result = last_json(out)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} trace={trace}: smoke run passes its checks"
                  + ("" if code == 0 else f" (exit {code}: {err.strip()})"))
            if result is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            check(got == want,
                  f"{workload} trace={trace}: prints exactly the {key} "
                  "metrics with their units")
        code, out, _ = run_binary(
            ["--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", "0", "--smoke", "--inject-wrong-reference"],
            capture=True)
        result = last_json(out)
        check(code != 0 and result is not None and not result["correct"],
              f"{workload}: a wrong reference trips the output check")
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not build():
        return 2
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        binary_args += ["--trace-out", os.path.join(
            ".bench_out", f"trace-{args.workload}-{args.seed}.json")]
    code, _, _ = run_binary(binary_args)
    return code


if __name__ == "__main__":
    sys.exit(main())
