"""Run the benchmark over many seeds and summarise each metric's spread.

    python3 bench/runset.py --seeds 1-10 --out bench/baseline/set1.json

Runs `bench/run.py` once per (seed, workload), one run at a time, with the
run length from BENCHMARK.json; each seed runs every workload in turn.  It prints every metric of every run with
its unit, and exits 1 if any run failed a correctness gate.  For each
end-to-end metric it then reports the median over the seeds and the spread:
the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to the
metric's bound.  A set of traced runs (--trace 1) is recorded the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    run = {"workload": workload, "seed": seed, "exit": proc.returncode,
           "wall_s": time.perf_counter() - t0}
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("details "):
            run["details"] = json.loads(line[len("details "):])
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        run["stderr"] = proc.stderr[-2000:]
    return run


def summarise(runs: list[dict], bounds: dict) -> dict:
    out: dict = {}
    for run in runs:
        if "result" not in run:
            continue
        per = out.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    summary = {}
    for workload, metrics in out.items():
        summary[workload] = {}
        for name, values in metrics.items():
            med = statistics.median(values)
            entry = {"median": med, "n": len(values)}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3,
                             spread=(q3 - q1) / med if med else 0.0)
            if name in bounds:
                entry["bound"] = bounds[name]
            summary[workload][name] = entry
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run and the summary here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    # seeds outside, workloads inside: a slow phase of the host then falls
    # on a few seeds of every workload rather than on one whole workload
    for seed in seed_list(args.seeds):
        for workload in args.workloads.split(","):
            run = run_one(workload, seed, spec["run_seconds"], args.trace)
            runs.append(run)
            result = run.get("result", {})
            print(f"{workload} seed {seed}: exit {run['exit']}, correct "
                  f"{result.get('correct')}, {run['wall_s']:.1f} s", flush=True)
            for name, m in result.get("metrics", {}).items():
                print(f"  {name} {m['value']:.6g} {m['unit']}")
    summary = summarise(runs, bounds)
    for workload, metrics in summary.items():
        for name, e in metrics.items():
            if "spread" in e and args.trace == 0:
                print(f"{workload:18s} {name:16s} median {e['median']:.5g} "
                      f"spread {e['spread']:.4f} bound {e.get('bound')}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"run_seconds": spec["run_seconds"], "trace": args.trace,
             "python": sys.version.split()[0], "runs": runs,
             "summary": summary}, indent=1, sort_keys=True) + "\n")
    bad = [r for r in runs if r["exit"] != 0]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
