#!/usr/bin/env python3
"""Runs one workload of the segroute repository benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. It builds perfbench/ (a CMake project that
compiles the library from src/) into .bench_build/perfbench, runs the
segbench program on the named workload, and prints every metric the run
measured by name, with its unit and sample count, then the host facts a
comparison needs. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json (--trace 0) or
its per-layer metrics (--trace 1). The full record, facts included, is also
written to .bench_build/results/. A traced run writes its span log to
.bench_build/traces/ as Chrome trace JSON.

Exit status: 0 when every output was checked correct; 1 on a wrong output
(the result line then says "correct": false); 2 when the benchmark cannot
build or run, or a metric BENCHMARK.json names is missing (no result line).
"""

import argparse
import json
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("svc-hot", "svc-cold", "svc-edit", "fabric-minwidth")
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def run_bounded(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen([str(c) for c in cmd], start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout} s: {cmd[0]}")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    for cmd in ("cmake", "make"):
        if shutil.which(cmd) is None:
            raise BenchError(f"{cmd} not found")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", BUILD, "-j", jobs]
    for attempt in range(2):
        ok = True
        if not (BUILD / "CMakeCache.txt").exists():
            code, _ = run_bounded(configure, BUILD_TIMEOUT_S, stdout=sys.stderr)
            ok = code == 0
        if ok:
            code, _ = run_bounded(compile_, BUILD_TIMEOUT_S, stdout=sys.stderr)
            ok = code == 0
        if ok:
            return BUILD / "segbench"
        if attempt == 0:  # a stale tree from another checkout: start over
            shutil.rmtree(BUILD, ignore_errors=True)
    raise BenchError("build failed")


def parse(stdout):
    metrics, facts, check, text = {}, {}, None, []
    for line in stdout.splitlines():
        f = line.split("\t")
        if f[0] == "metric" and len(f) == 5:
            metrics[f[1]] = {"value": float(f[2]), "unit": f[3], "samples": int(f[4])}
        elif f[0] == "fact" and len(f) == 3:
            facts[f[1]] = f[2]
        elif f[0] == "check" and len(f) == 4:
            check = (f[1] == "1", int(f[2]), int(f[3]))
        else:
            text.append(line)
    return metrics, facts, check, text


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise BenchError(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    exe = build()
    (ROOT / ".bench_build" / "results").mkdir(parents=True, exist_ok=True)
    (ROOT / ".bench_build" / "traces").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        # One span log per workload: the latest traced run's.
        cmd += ["--trace-out", ROOT / ".bench_build" / "traces" / f"{args.workload}.json"]
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    metrics, facts, check, text = parse(out)
    if check is None:
        raise BenchError(f"segbench exited {code} without a result")
    correct, attempted, failed = check

    for line in text:
        print(line)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']} (n={m['samples']})")
    print("host: " + " ".join(f"{k}={v}" for k, v in facts.items()))

    result = {}
    for w in wanted:
        m = metrics.get(w["name"])
        if m is None or not math.isfinite(m["value"]) or m["unit"] != w["unit"]:
            raise BenchError(f"metric {w['name']} missing or malformed: {m}")
        result[w["name"]] = {"value": m["value"], "unit": m["unit"]}
    correct = correct and code == 0 and attempted >= 1
    record = {"facts": facts, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (ROOT / ".bench_build" / "results" / f"{stem}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
