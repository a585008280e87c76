#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 psdpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the psdp library from that checkout
plus the psdpbench runner program (CMake, Release, into $CARGO_TARGET_DIR
or .bench_build), runs one workload with the fixed load definition from
psdpbench/workloads.json, relays the runner's output and exits with its
status. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}. See psdpbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print(f"psdpbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root):
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "psdpbench"
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "psdpbench",
                  "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=root, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {step[:2]} did not finish: {e}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail(f"build failed: {' '.join(step)}")
    return build_dir / "psdpbench"


def flatten(prefix, value, out):
    if isinstance(value, dict):
        for key, item in value.items():
            flatten(f"{prefix}.{key}" if prefix else key, item, out)
    elif isinstance(value, list):
        out[prefix] = ",".join(str(v) for v in value)
    else:
        out[prefix] = str(value)


def commit_of(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    definition = json.loads((BENCH_DIR / "workloads.json").read_text())
    workloads = definition["workloads"]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; known: {', '.join(workloads)}")
    binary = build(root)

    params = {}
    flatten("", workloads[args.workload], params)
    work_dir = Path(".bench_out") / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(root / work_dir, ignore_errors=True)
    (root / work_dir).mkdir(parents=True)

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--commit", commit_of(root)]
    for key, value in params.items():
        command += ["--param", f"{key}={value}"]
    try:
        done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode not in (0, 1):
        sys.stdout.write(done.stdout)
        fail(f"runner exited with status {done.returncode}", done.returncode)
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(done.stdout)
        fail("runner printed no result line")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(0 if done.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
