#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at smoke size (a 1/40-size design).

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it checks that
  * an untraced and a traced run finish with every gate passing, and their
    result JSON carries exactly the end_to_end and the per_layer metric names
    of BENCHMARK.json;
  * the workload's own end-to-end figures print by name, with unit and
    sample count;
  * with --corrupt-reference 1 the gates fire: the run exits non-zero and
    reports "correct": false.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAMED = {
    "place_dense": ["dense_iters_per_s", "dense_iter_p50_ms",
                    "dense_iter_p90_ms"],
    "eco_sizing": ["eco_iters_per_s", "eco_iter_p50_ms", "eco_iter_p99_ms"],
    "serve_mixed": ["whatif_qps", "whatif_p50_ms", "whatif_p99_ms",
                    "read_p99_ms", "commit_p50_ms", "replica_lag_p50_ms"],
}
COMMON = ["setup_s", "peak_rss_mb"]


def run(workload, trace, corrupt="0"):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", trace,
           "--size", "smoke", "--corrupt-reference", corrupt]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, p.stdout, result


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    for w in spec["workloads"]:
        name = w["name"]
        for trace, names in (("0", e2e), ("1", layer)):
            rc, out, res = run(name, trace)
            check(rc == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{name} trace={trace}: runs clean, every gate passes")
            check(res is not None and list(res["metrics"]) == names,
                  f"{name} trace={trace}: result carries every metric name")
            if trace == "0":
                for n in COMMON + NAMED[name]:
                    check(re.search(r"^\S+\s+" + re.escape(n) +
                                    r"\s+\S+ \S+ \(n=\d+\)$", out, re.M)
                          is not None,
                          f"{name}: prints {n} with unit and sample count")
        rc, out, res = run(name, "0", corrupt="1")
        check(rc != 0 and res is not None and not res["correct"]
              and res["failed"] > 0 and "FAIL" in out,
              f"{name}: a corrupted reference makes the gates fire")
    print("smoke test passed")


if __name__ == "__main__":
    main()
