#!/usr/bin/env python3
"""Seconds-long smoke test of the benchmark itself.

    python3 perfbench/smoke.py [--seed N] [--seconds S]

Runs every workload untraced and traced through perfbench/run.py, and fails
unless each run exits 0 with "correct": true and reports every metric
BENCHMARK.json names. The correctness checks are the benchmark's own: every
returned routing re-verified by harness::RouteVerifier, every generated
instance routed, every edit session equal to alg::from_scratch at the end,
and every fabric routed within 32 tracks with a repeating digest.

It then checks that each workload stresses the layer it claims to:
engine.hit_ratio >= 0.99 on svc-hot and 0 on svc-cold, svc-hot's service
time under 5% of its client latency, and alg.online_repair_frac < 1 on
svc-edit.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("svc-hot", "svc-cold", "svc-edit", "fabric-minwidth")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace}: exit {p.returncode}\n"
                             f"{p.stdout[-3000:]}\n{p.stderr[-3000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{workload} trace={trace}: {result}")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    got = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            got[w, trace] = run(w, args.seed, args.seconds, trace)
            wanted = spec["per_layer" if trace else "end_to_end"]
            missing = [m["name"] for m in wanted if m["name"] not in got[w, trace]]
            if missing:
                raise AssertionError(f"{w} trace={trace}: missing {missing}")
            print(f"ok  {w} trace={trace}")

    def v(w, trace, name):
        return got[w, trace][name]["value"]

    stress = [
        ("svc-hot engine.hit_ratio >= 0.99",
         v("svc-hot", 1, "engine.hit_ratio") >= 0.99),
        ("svc-cold engine.hit_ratio == 0",
         v("svc-cold", 1, "engine.hit_ratio") == 0),
        ("svc-hot svc.service_p50_us < 5% of latency_p50_us",
         v("svc-hot", 1, "svc.service_p50_us")
         < 0.05 * v("svc-hot", 0, "latency_p50_us")),
        ("svc-edit alg.online_repair_frac < 1",
         v("svc-edit", 1, "alg.online_repair_frac") < 1),
    ]
    failed = [name for name, ok in stress if not ok]
    for name, ok in stress:
        print(("ok  " if ok else "FAIL ") + name)
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"FAIL {e}", file=sys.stderr)
        sys.exit(1)
