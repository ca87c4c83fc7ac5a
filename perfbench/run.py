#!/usr/bin/env python3
"""Builds and runs the repository benchmark described by BENCHMARK.json.

Run from the repository root:

    python3 perfbench/run.py --workload place_dense --seed 1 --seconds 10 --trace 0

Workloads: place_dense, eco_sizing, serve_mixed. The first run configures
and builds perfbench/ (which builds the repository libraries from source)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. Build output goes to stderr. The benchmark's own output
follows on stdout; its last line is the result JSON. Extra options for the
benchmark's own tests: --size smoke (a 1/40-size design) and
--corrupt-reference 1 (every correctness gate must then fail).
Exits non-zero when the build fails, a gate fails or an operation fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "insta_perfbench", "-j", "3"],
        check=True, stdout=sys.stderr, cwd=ROOT)
    return os.path.join(build_dir, "insta_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["place_dense", "eco_sizing", "serve_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    ap.add_argument("--corrupt-reference", choices=["0", "1"], default="0")
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--size", args.size, "--corrupt-reference", args.corrupt_reference,
           # Relative to the checkout, so the Unix socket path inside it
           # stays short wherever the checkout lives.
           "--work-dir", os.path.relpath(
               os.path.join(build_dir, "perfbench-work"), ROOT)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
