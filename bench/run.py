"""rmcorr benchmark: one workload per invocation, closed loop.

    python3 bench/run.py --workload corpus-verify --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout; rmcorr is imported from its `src`
directory.  Each pass over the workload's fixed input set runs in a fresh
interpreter, as one `rmcorr` command would: it imports rmcorr, builds the
inputs and sends the formulas one after another, each only after the
previous verdict.  A cache kept across the formulas of a pass counts; none
survives into the next pass.  Passes run one at a time until --seconds are
used up (at least the workload's minimum number of passes).  With --trace 0
the end-to-end metrics are reported, every time scaled to a reference host
speed measured during the pass (see reference.py); with --trace 1
untraced and traced passes alternate and the per-layer metrics are
reported, as measured.  The last line of
standard output is one JSON object; the lines before it repeat every metric
in readable form with the details (digests, percentile, sample counts).
The exit code is 1 when a correctness gate failed and 2 when a pass could
not run at all (no rmcorr sources, for one).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, process  # noqa: E402

PASS_TIMEOUT_S = 120
CLI_TIMEOUT_S = 150


class PassFailed(Exception):
    """A pass that could not run, as opposed to a formula that failed."""


def load_rmcorr():
    """Import rmcorr from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    rmcorr = importlib.import_module("rmcorr")
    if Path(rmcorr.__file__).resolve().parent != (SRC / "rmcorr").resolve():
        raise ImportError(f"rmcorr was imported from {rmcorr.__file__}")
    # by module path: the package re-exports a function named `render`
    mods = {name: importlib.import_module(f"rmcorr.{name}")
            for name in ("fol", "formula", "corpus", *tracing.LAYERS)}
    return types.SimpleNamespace(
        **mods,
        traced=tuple(mods[name] for name in tracing.LAYERS))


# -- one pass, in its own interpreter -------------------------------------------

class Pass:
    """One pass over the input set.  Outputs are folded into a digest.
    Formula times are scaled to the reference host speed by the sampler;
    `scale` is the pass's mean factor, weighted by time."""

    def __init__(self, rm, workload, items, sampler, tracer=None):
        self.latencies: list[tuple[str, float]] = []
        starts: list[float] = []
        sampled = 0.0
        self.errors: list[tuple[str, str]] = []
        outputs = hashlib.sha256()
        self.rows: list[str] = []
        self.counts = {"goals": 0, "goals_failed": 0, "trace_steps": 0,
                       "attempt_log_entries": 0, "attempt_log_truncated": 0,
                       "fo_nodes": 0, "order_len": 0}
        cap = getattr(rm.pipeline, "MAX_ATTEMPT_LOG", None)
        t0 = perf_counter()
        for item in items:
            starts.append(perf_counter())
            out = process(rm, workload, item)
            self.latencies.append((item.label, out.seconds))
            sampled += sampler.after(out.seconds)
            if out.error is not None:
                self.errors.append((item.label, out.error))
            outputs.update(json.dumps(out.output, sort_keys=True).encode())
            if out.row is not None:
                self.rows.append(out.row)
            if tracer is not None:
                tracer.end_formula(item.label)
                if out.result is not None:
                    self._count(rm, out.result, cap)
        self.wall = perf_counter() - t0 - sampled
        raw_s = sum(s for _, s in self.latencies)
        self.latencies = [(label, s * sampler.scale(t)) for (label, s), t
                          in zip(self.latencies, starts)]
        self.scale = (sum(s for _, s in self.latencies) / raw_s
                      if raw_s else 1.0)
        self.output_digest = outputs.hexdigest()[:16]

    def _count(self, rm, result, cap) -> None:
        c = self.counts
        for g in result.goals:
            c["goals"] += 1
            c["trace_steps"] += len(g.steps)
            if g.failure is not None:
                c["goals_failed"] += 1
                c["attempt_log_entries"] += len(g.failure.attempted)
                if cap is not None and len(g.failure.attempted) >= cap:
                    c["attempt_log_truncated"] += 1
        if result.status == "success":
            c["order_len"] += sum(len(g.order) for g in result.goals)
            c["fo_nodes"] += sum(1 for _ in rm.fol.walk(result.fo))


def worker(workload, seed: int, trace: bool) -> int:
    """Set up, say when set-up ended, run one pass, print it as JSON.  Every
    time is scaled to the reference host speed."""
    rm = load_rmcorr()
    items = workload.build(rm, seed)
    ready = perf_counter()
    digest = inputs.digest([[i.label, i.text] for i in items])
    print(f"ready {time.time()!r} {digest}", flush=True)
    tr = None
    if trace:
        tr = tracing.Tracer(rm.traced)
        tr.install()
    sampler = reference.Sampler()
    p = Pass(rm, workload, items, sampler, tr)
    out = {"wall": p.wall * p.scale, "unscaled_wall": p.wall,
           "latencies": p.latencies, "setup_scale": sampler.scale(ready),
           "errors": p.errors,
           "output_digest": p.output_digest, "rows": p.rows,
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tr is not None:
        out["layers"] = per_layer(tr, p)
        out["slowest_formula"] = tr.slowest_formula()
    print(json.dumps(out))
    return 0


def spawn_pass(workload: str, seed: int, trace: bool) -> dict:
    """Run one pass in a fresh interpreter.  Its set-up time runs from the
    spawn to the worker's report that its inputs are built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(int(trace)), "--worker"]
    spawned = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise PassFailed(f"a pass took over {PASS_TIMEOUT_S} s") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("ready "):
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        raise PassFailed(f"a pass failed: {tail[0]}")
    _, ready, digest = lines[0].split()
    p = json.loads(lines[-1])
    p.update(setup_s=(float(ready) - spawned) * p["setup_scale"],
             input_digest=digest)
    return p


def run_passes(seconds: float, min_passes: int, one_round) -> list:
    """Call one_round until the time is used up, at least min_passes times;
    a round starts only if a round of median length still fits."""
    rounds, lengths = [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        rounds.append(one_round())
        lengths.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        if (len(rounds) >= min_passes
                and elapsed + statistics.median(lengths) > seconds):
            return rounds


# -- measurement ---------------------------------------------------------------

def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks (inclusive method)."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def formula_times(passes: list[dict]) -> list[float]:
    """Each formula's median time across the passes, so that a burst of
    host load during one pass does not move it."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for label, seconds in p["latencies"]:
            times.setdefault(label, []).append(seconds)
    return [statistics.median(t) for t in times.values()]


def median_pass(passes: list[dict]) -> dict:
    """The pass of median wall time (the lower one of an even count)."""
    return sorted(passes, key=lambda p: p["wall"])[(len(passes) - 1) // 2]


def cli_gate(rows: list[str]) -> str | None:
    """`rmcorr --corpus bundled-axioms --verify 2` must exit 0 and print
    exactly the rows this benchmark produced."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "rmcorr", "--corpus", "bundled-axioms",
           "--verify", "2"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "CLI corpus run timed out"
    if proc.returncode != 0:
        return f"CLI corpus run exited {proc.returncode}"
    if sorted(proc.stdout.splitlines()) != sorted(rows):
        return "CLI corpus rows differ from the benchmark's rows"
    return None


# -- metrics -------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(workload, passes, details):
    lat = formula_times(passes)
    tail = percentile(lat, workload.tail_percentile)
    setup = [p["setup_s"] for p in passes]
    details.update({
        "formulas": len(lat), "tail_percentile": workload.tail_percentile,
        "beyond_tail": sum(1 for x in lat if x > tail),
        "setup_samples_s": setup,
        "unscaled_pass_s": [p["unscaled_wall"] for p in passes],
    })
    return {
        "run_s": metric(sum(lat), "s"),
        "latency_p50_ms": metric(percentile(lat, 50) * 1e3, "ms"),
        "latency_tail_ms": metric(tail * 1e3, "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(
            statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(tr: tracing.Tracer, traced: Pass):
    """Per-layer figures of one traced pass, its times scaled by the pass's
    factor.  The untraced run_s and the overhead ratio are added by the
    caller."""
    calls, ok, c = tr.calls, tr.returned, traced.counts
    incl = {key: t * traced.scale for key, t in tr.inclusive.items()}
    m = {}
    for key in ("syntax.parse", "render.render", "pipeline.preprocess",
                "pipeline.approximate", "pipeline.eliminate",
                "pipeline.simplify", "translate.tr_quasi",
                "translate.fo_simplify", "frames.frame_valid", "frames.eval_fo"):
        m[f"{key}_s"] = metric(incl.get(key, 0.0), "s")
    m["frames.enumerate_s"] = metric(incl.get("frames.enumerate_frames", 0.0),
                                     "s")
    for rule in ("approximation", "monotone_elim"):
        key = f"calculus.{rule}"
        m[f"{key}_calls"] = metric(calls[key], "count")
        m[f"{key}_applied"] = metric(ok[key], "count")
        m[f"{key}_applied_ratio"] = metric(ratio(ok[key], calls[key]), "1")
    for rule in ("find_split", "ackermann", "residuation", "adjunction"):
        m[f"calculus.{rule}_calls"] = metric(calls[f"calculus.{rule}"], "count")
    m["calculus.ackermann_useful"] = metric(c["order_len"], "count")
    m["calculus.ackermann_useful_ratio"] = metric(
        ratio(c["order_len"], calls["calculus.ackermann"]), "1")
    for key in ("goals", "goals_failed", "trace_steps", "attempt_log_entries",
                "attempt_log_truncated"):
        m[f"pipeline.{key}"] = metric(c[key], "count")
    m["translate.fo_nodes"] = metric(c["fo_nodes"], "count")
    checked = calls["frames.check_frame"]
    yielded = ok["frames.enumerate_frames"]
    m["frames.check_frame_calls"] = metric(checked, "count")
    m["frames.frames_yielded"] = metric(yielded, "count")
    m["frames.valid_ratio"] = metric(ratio(yielded, checked), "1")
    m["frames.frame_valid_calls"] = metric(calls["frames.frame_valid"], "count")
    m["frames.valuations"] = metric(calls["frames.extension"], "count")
    m["frames.eval_fo_calls"] = metric(calls["frames.eval_fo"], "count")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = metric(tr.self_time[layer] * traced.scale, "s")
    m["bench.other_s"] = metric((traced.wall - tr.covered) * traced.scale, "s")
    m["trace.run_s"] = metric(traced.wall * traced.scale, "s")
    return m


# -- main ----------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true",
                    help="run one pass in this interpreter (used by run.py)")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.worker:
        return worker(workload, args.seed, bool(args.trace))
    if not (SRC / "rmcorr" / "__init__.py").is_file():
        sys.stderr.write(f"error: no rmcorr sources under {SRC}\n")
        return 2

    details = {"workload": workload.name, "seed": args.seed}
    try:
        if args.trace:
            traced_passes: list[dict] = []

            def one_round():
                traced_passes.append(spawn_pass(workload.name, args.seed, True))
                return spawn_pass(workload.name, args.seed, False)

            plain_passes = run_passes(args.seconds, 1, one_round)
            passes = plain_passes + traced_passes
            chosen = median_pass(traced_passes)
            metrics = chosen["layers"]
            untraced = median_pass(plain_passes)["wall"]
            metrics["trace.untraced_run_s"] = metric(untraced, "s")
            metrics["trace.overhead_ratio"] = metric(
                ratio(chosen["wall"], untraced), "1")
            details["slowest_traced_formula"] = chosen["slowest_formula"]
        else:
            passes = run_passes(
                args.seconds, workload.min_passes,
                lambda: spawn_pass(workload.name, args.seed, False))
            metrics = end_to_end(workload, passes, details)
    except PassFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    errors = [tuple(e) for p in passes for e in p["errors"]]
    digests = {p["input_digest"] for p in passes}
    if len(digests) != 1:
        errors.append(("inputs", f"passes built different inputs: {digests}"))
    attempted = sum(len(p["latencies"]) for p in passes)
    if workload.cli_gate:
        gate = cli_gate(passes[-1]["rows"])
        if gate is not None:
            errors.append(("rmcorr --corpus bundled-axioms --verify 2", gate))
    details.update({
        "inputs": len(passes[0]["latencies"]), "input_digest": min(digests),
        "passes": len(passes), "pass_s": [p["wall"] for p in passes],
        "attempted": attempted, "failed": len(errors),
        "error_ratio": ratio(len(errors), attempted),
        "errors": errors[:20],
        "output_digest": passes[0]["output_digest"],
    })

    for name, m in metrics.items():
        print(f"{workload.name}\t{name}\t{m['value']:.6g}\t{m['unit']}")
    print(f"{workload.name}\terror_ratio\t{details['error_ratio']:.6g}\t1"
          f"\t({details['failed']} of {attempted})")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(errors), "metrics": metrics}))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
