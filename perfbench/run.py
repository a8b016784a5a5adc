"""Layered benchmark for mongecfl: one caller solving a seeded batch.

Usage, from the repository root:

    python3 perfbench/run.py --workload fptas-dense --seed 1 --seconds 30 --trace 0

A closed loop with one caller, one process and one thread runs a
workload's pass of operations again and again until ``--seconds`` are
used up (always at least one pass).  Every output is checked after the
timed section.  The last line of standard output is the result JSON;
the line before it is a summary with the figures that are not gated.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates an untraced and a traced pass and reports the
per-layer metrics of the traced passes, with the tracing overhead.
Spans and the summary are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from spans import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 8  # extra cold set-ups in child processes; setup_s is the median

KINDS = ("exact", "fptas", "two_class", "convert")


def _load_library():
    """Import mongecfl from this checkout's src/ and the workload code."""
    src = ROOT / "src"
    if not (src / "mongecfl" / "__init__.py").is_file():
        raise ImportError(f"no mongecfl package under {src}")
    sys.path.insert(0, str(src))
    import mongecfl
    if Path(mongecfl.__file__).resolve().parent != src / "mongecfl":
        raise ImportError(f"mongecfl imported from {mongecfl.__file__}")
    import workloads
    return mongecfl, workloads


def _setup(workload: str, seed: int, workdir: Path):
    """Everything up to the first timed call; returns (seconds, ...)."""
    start = time.perf_counter()
    mongecfl, workloads = _load_library()
    refs = workloads.References()
    ops = workloads.build(workload, seed, workdir, refs)
    return time.perf_counter() - start, mongecfl, workloads, ops


def _probe_workdir(workload: str, seed: int) -> Path:
    return OUT / "work" / f"probe-{workload}-{seed}"


def _probe_setup(workload: str, seed: int) -> float:
    """One cold set-up in a child process; returns its seconds."""
    workdir = _probe_workdir(workload, seed)
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _run_pass(ops, workloads, tracer=None):
    """One pass; returns (wall ns, [latency ns], [(kept output, facts)])."""
    latencies, outputs = [], []
    start = time.perf_counter_ns()
    root = tracer.begin("pass") if tracer else None
    for index, op in enumerate(ops):
        if tracer:
            tracer.op = index
            span = tracer.begin("op." + op.kind)
        t0 = time.perf_counter_ns()
        try:
            output = op.call()
        except Exception:  # recorded and counted as a failed operation
            output = workloads.Failure(traceback.format_exc())
        latencies.append(time.perf_counter_ns() - t0)
        if tracer:
            tracer.end(span)
            tracer.op = None
        outputs.append(output)
    if tracer:
        tracer.end(root)
        wall = tracer.spans[root][2] - tracer.spans[root][1]
    else:
        wall = time.perf_counter_ns() - start
    return wall, latencies, [_reduce(op, output, workloads)
                             for op, output in zip(ops, outputs)]


def _reduce(op, output, workloads):
    if isinstance(output, workloads.Failure):
        return output, {}
    try:
        return op.keep(output), op.facts(output)
    except Exception:  # a malformed output fails its check later
        return output, {}


def _nearest_rank(values, q: float):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _tail_quantile(ops_per_pass: int) -> float:
    """Highest quantile with at least ten operations beyond it, never
    below the median; fixed per workload, so runs compare."""
    return max(0.5, (ops_per_pass - 10) / ops_per_pass)


def _check(ops, workloads, passes):
    """Check every output; returns (failed, ratios, messages)."""
    failed, ratios, messages = 0, [], []
    for outputs in passes:
        for op, (output, _) in zip(ops, outputs):
            if isinstance(output, workloads.Failure):
                problems, ratio = [output.text.strip().splitlines()[-1]], None
            else:
                try:
                    problems, ratio = op.check(output)
                except Exception:
                    problems, ratio = [traceback.format_exc()], None
            if problems:
                failed += 1
                messages.append(f"{op.label}: {'; '.join(problems)}")
            if ratio is not None:
                ratios.append(ratio)
    return failed, ratios, messages


def _layer_metrics(tracer, facts, traced_walls, untraced_walls, kind_walls):
    """Per-layer metrics per traced pass (sums divided by pass count)."""
    n = len(traced_walls)
    self_ns = tracer.self_ns()
    layer_ns = {name: self_ns.pop(name, 0) for name in LAYERS}
    other_ns = sum(self_ns.values())  # pass and op spans' own time
    total = sum(layer_ns.values()) + other_ns
    if total != sum(traced_walls):
        raise AssertionError(f"layer self times add up to {total} ns, "
                             f"traced wall is {sum(traced_walls)} ns")
    metrics = {f"{name}_s": (ns / n / 1e9, "s")
               for name, ns in layer_ns.items()}
    metrics["other_s"] = (other_ns / n / 1e9, "s")
    fills = [f for f in facts if "object" in f]
    points = sum(f["m"] * f["grid_size"] * (f["grid_size"] + 1) // 2
                 for f in fills)
    attempts = sum(f["attempts"] for f in fills)
    exponents = [f["exponent"] for f in fills if f["exponent"] is not None]
    hot = {name: tracer.hot.get(name, [0, 0]) for name in
           ("exact.greedy_serve", "fptas.bound_feasibility",
            "kernel.demand_met", "kernel.serve_schedule")}
    metrics.update({
        "fptas.fill_points": (points / n, "count"),
        "fptas.fill_ns_per_point": (layer_ns["fptas.fill"] / points
                                    if points else 0, "ns"),
        "fptas.curves": (sum(f["m"] * f["grid_size"] for f in fills) / n,
                         "count"),
        "fptas.grid_points": (sum(f.get("grid_size", 0) for f in facts) / n,
                              "count"),
        "fptas.object_fill_share": (sum(f["object"] for f in fills)
                                    / len(fills) if fills else 0, "ratio"),
        "fptas.scale_exponent_mean": (statistics.fmean(exponents)
                                      if exponents else 0, "count"),
        "fptas.fill_attempts": (attempts / n, "count"),
        "fptas.fill_useful_share": (len(fills) / attempts if attempts else 0,
                                    "ratio"),
        "fptas.bound_feasibility_calls": (
            hot["fptas.bound_feasibility"][0] / n, "count"),
        "exact.greedy_serve_calls": (hot["exact.greedy_serve"][0] / n,
                                     "count"),
        "kernel.demand_met_calls": (hot["kernel.demand_met"][0] / n, "count"),
        "kernel.serve_schedule_calls": (hot["kernel.serve_schedule"][0] / n,
                                        "count"),
        "trace.wall_s": (statistics.fmean(traced_walls) / 1e9, "s"),
        "trace.overhead_s": ((sum(traced_walls) - sum(untraced_walls))
                             / n / 1e9, "s"),
    })
    for kind in KINDS:
        metrics[f"ops.{kind}_wall_s"] = (kind_walls[kind], "s")
    return metrics


class Runs:
    """What the timed section recorded, in pass order."""

    def __init__(self, ops):
        self.untraced: list = []  # wall ns per untraced pass
        self.traced: list = []    # wall ns per traced pass
        self.latencies = [[] for _ in ops]  # per op, ns per untraced pass
        self.kind_ns: list = []   # per untraced pass: {kind: ns}
        self.outputs: list = []   # per pass (traced ones interleaved)


def _measure(ops, workloads, mongecfl, seconds: float, tracer) -> Runs:
    """Whole passes while another one fits in ``seconds``; with a tracer,
    each untraced pass is followed by a traced one."""
    runs = Runs(ops)
    started = time.perf_counter_ns()
    while True:
        wall, latencies, outputs = _run_pass(ops, workloads)
        runs.untraced.append(wall)
        runs.outputs.append(outputs)
        kinds = dict.fromkeys(KINDS, 0)
        for op, samples, ns in zip(ops, runs.latencies, latencies):
            samples.append(ns)
            kinds[op.kind] += ns
        runs.kind_ns.append(kinds)
        step = wall
        if tracer:
            tracer.install(mongecfl)
            try:
                wall, _, outputs = _run_pass(ops, workloads, tracer)
            finally:
                tracer.uninstall()
            runs.traced.append(wall)
            runs.outputs.append(outputs)
            step += wall
        if time.perf_counter_ns() - started + step > seconds * 1e9:
            return runs


def _end_to_end_metrics(runs: Runs, setups, ratios):
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(runs.untraced) / 1e9, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "approx_ratio_mean": (float(sum(ratios, Fraction(0))
                                    / max(1, len(ratios))), "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fptas-dense", "lotsizing", "two-class"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time the set-up alone and print it")
    args = parser.parse_args(argv)

    if args.setup_probe:
        workdir = _probe_workdir(args.workload, args.seed)
        print(_setup(args.workload, args.seed, workdir)[0])
        return 0

    workdir = OUT / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup_s, mongecfl, workloads, ops = _setup(args.workload, args.seed,
                                                   workdir)
    except ImportError as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    runs = _measure(ops, workloads, mongecfl, args.seconds, tracer)

    failed, ratios, messages = _check(ops, workloads, runs.outputs)
    for message in messages:
        print(f"check failed: {message}", file=sys.stderr)
    facts = [[f for _, f in outputs] for outputs in runs.outputs]
    invariants = workloads.invariant_violations(args.workload, facts[0])
    for message in invariants:
        print(f"invariant violated: {message}", file=sys.stderr)
    setups = [setup_s] + [_probe_setup(args.workload, args.seed)
                          for _ in range(SETUP_PROBES)]
    attempted = len(ops) * len(runs.outputs)
    kind_walls = {k: statistics.median(p[k] for p in runs.kind_ns) / 1e9
                  for k in KINDS}
    # an operation's latency is its median over the passes
    op_latencies = [statistics.median(s) for s in runs.latencies]
    q = _tail_quantile(len(ops))
    summary = {
        "workload": args.workload, "seed": args.seed,
        "passes": len(runs.untraced), "traced_passes": len(runs.traced),
        "pass_wall_s": [ns / 1e9 for ns in runs.untraced],
        "ops_per_pass": len(ops), "error_share": failed / attempted,
        "op_p50_ms": _nearest_rank(op_latencies, 0.5) / 1e6,
        "op_ptail_ms": _nearest_rank(op_latencies, q) / 1e6,
        "op_ptail_percentile": round(100 * q, 2),
        "op_ptail_ops_beyond": len(ops) - math.ceil(q * len(ops)),
        "op_latency_samples": len(ops) * len(runs.untraced),
        "kind_wall_s": kind_walls, "setup_samples_s": setups,
        "invariant_violations": invariants,
        "check_failures": messages[:20],
    }
    if tracer:
        traced_facts = [f for pass_facts in facts[1::2] for f in pass_facts]
        metrics = _layer_metrics(tracer, traced_facts, runs.traced,
                                 runs.untraced, kind_walls)
    else:
        metrics = _end_to_end_metrics(runs, setups, ratios)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(summary, result=result,
                  trace=tracer.to_json() if tracer else None)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record) + "\n", encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
