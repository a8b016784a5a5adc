"""Command-line surface.

Exit codes: 0 success, 1 input error (or an output file that cannot
be written), 2 infeasible instance, 3 Monge violation.  Reports go to
standard output as JSON; solution and instance files are written where
the flags say.
"""

from __future__ import annotations

import argparse
import csv
import glob
import hashlib
import json
import random
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

from . import io as mio
from .exact import DemandCapExceeded, solve_exact
from .extensions import ClientPartition, check_windowed_monge, run_two_class_fptas
from .fptas import run_fptas
from .generate import (random_lot_sizing, random_monge_instance,
                       random_windowed_instance)
from .model import (Infeasible, Instance, MongeWitness, check_monge_adjacent,
                    check_monge_full, is_inf, validate_instance)
from .oracle import brute_force_optimum
from .reductions import lot_sizing_to_cfl, multi_item_to_cfl

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_MONGE = 3


@dataclass
class RunReport:
    algorithm: str
    instance: str
    cost: str
    epsilon: Optional[str] = None
    bound: Optional[int] = None
    grid_step: Optional[int] = None
    grid_size: Optional[int] = None
    grid_budget: Optional[int] = None
    wall_ms: Optional[float] = None
    oracle_cost: Optional[str] = None
    ratio: Optional[str] = None


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _ratio(cost, optimum) -> Optional[str]:
    """cost / optimum as a string; "1" when both are 0, None when only
    the optimum is."""
    if optimum == 0:
        return "1" if cost == 0 else None
    return str(Fraction(cost) / Fraction(optimum))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _epsilon(text: str) -> Fraction:
    """``text`` as a positive rational; ValueError otherwise."""
    try:
        eps = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"epsilon {text!r} is not a rational number") \
            from None
    if eps <= 0:
        raise ValueError(f"epsilon {text!r} must be positive")
    return eps


def _load(path: str) -> Instance:
    inst = mio.load_instance(path)
    problems = [p for p in validate_instance(inst)
                if not p.startswith("warning")]
    if problems:
        raise ValueError("; ".join(problems))
    return inst


def cmd_solve(args) -> int:
    try:
        inst = _load(args.input)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"cannot read instance: {exc}", EXIT_INPUT)
    if args.algorithm in ("fptas", "two-class") and args.epsilon is None:
        return _fail("--epsilon is required for this algorithm", EXIT_INPUT)
    try:
        eps = None if args.epsilon is None else _epsilon(args.epsilon)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    partition = ClientPartition(range(1, inst.n + 1), ())
    if args.algorithm == "two-class" and args.partition:
        try:
            partition = mio.load_partition(args.partition)
        except (OSError, ValueError, KeyError) as exc:
            return _fail(f"cannot read partition: {exc}", EXIT_INPUT)

    report = RunReport(algorithm=args.algorithm, instance=_digest(args.input),
                       cost="inf")
    start = time.perf_counter()
    try:
        if args.algorithm == "exact":
            solution = solve_exact(inst)
            if is_inf(solution.total_cost):
                print(json.dumps(asdict(report)))
                return EXIT_INFEASIBLE
        else:
            result = (run_fptas(inst, eps) if args.algorithm == "fptas"
                      else run_two_class_fptas(inst, partition, eps))
            solution = result.solution
            report.epsilon = args.epsilon
            report.bound = result.bound
            report.grid_step = result.grid.K
            report.grid_size = result.grid.size
            report.grid_budget = result.grid_budget
    except Infeasible:
        print(json.dumps(asdict(report)))
        return EXIT_INFEASIBLE
    except (ValueError, KeyError) as exc:
        return _fail(str(exc), EXIT_INPUT)
    report.wall_ms = round((time.perf_counter() - start) * 1000, 3)
    report.cost = str(Fraction(solution.total_cost))

    if args.verify_with_oracle:
        try:
            oracle = brute_force_optimum(inst)
        except ValueError as exc:
            return _fail(f"cannot verify with the oracle: {exc}", EXIT_INPUT)
        report.oracle_cost = str(Fraction(oracle.optimum))
        report.ratio = _ratio(solution.total_cost, oracle.optimum)
    if args.output:
        mio.save_solution(solution, args.output)
    print(json.dumps(asdict(report)))
    return EXIT_OK


def _print_witness(witness) -> None:
    if isinstance(witness, MongeWitness):
        print(f"violation at facilities ({witness.h},{witness.i}) "
              f"clients ({witness.j},{witness.k}): "
              f"{witness.lhs} > {witness.rhs}")
    else:
        print(f"violation: {witness}")


def cmd_check(args) -> int:
    try:
        inst = _load(args.input)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"cannot read instance: {exc}", EXIT_INPUT)
    try:
        if args.mode == "full":
            witness = check_monge_full(inst.costs)
        elif args.mode == "adjacent":
            witness = check_monge_adjacent(inst.costs)
        else:
            witness = check_windowed_monge(inst)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    if witness is None:
        print("pass")
        return EXIT_OK
    _print_witness(witness)
    return EXIT_NOT_MONGE


def _save_monge_instance(inst: Instance, path: str) -> int:
    """Write ``inst`` to ``path`` if its costs are Monge; otherwise
    print the witness and write nothing."""
    witness = check_monge_full(inst.costs)
    if witness is not None:
        _print_witness(witness)
        return EXIT_NOT_MONGE
    mio.save_instance(inst, path)
    print(f"wrote {inst.m}x{inst.n} instance to {path}")
    return EXIT_OK


def cmd_convert(args) -> int:
    try:
        if args.source == "single-demand":
            inst = mio.load_instance(args.input)
            if inst.n != 1:
                return _fail("single-demand conversion needs exactly one "
                             "client", EXIT_INPUT)
        else:
            ls = mio.load_lot_sizing(args.input)
            if args.source == "lot-sizing":
                inst = lot_sizing_to_cfl(ls)
            else:
                inst = multi_item_to_cfl(ls)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(f"conversion failed: {exc}", EXIT_INPUT)
    code = _save_monge_instance(inst, args.output)
    if code == EXIT_NOT_MONGE:
        print("internal error: reduction produced a non-Monge matrix",
              file=sys.stderr)
    return code


def cmd_generate(args) -> int:
    if args.m < 1 or args.n < 1:
        return _fail("--m and --n must be positive", EXIT_INPUT)
    if args.max_demand < 1:
        return _fail("--max-demand must be positive", EXIT_INPUT)
    if args.max_cost < 0:
        return _fail("--max-cost must be nonnegative", EXIT_INPUT)
    rng = random.Random(args.seed)
    if args.kind == "monge":
        inst = random_monge_instance(rng, args.m, args.n,
                                     max_cost=args.max_cost,
                                     max_demand=args.max_demand)
    elif args.kind == "lot-sizing":
        ls = random_lot_sizing(rng, args.m, max_cost=args.max_cost,
                               max_demand=args.max_demand)
        mio.save_lot_sizing(ls, args.output)
        print(f"wrote lot-sizing instance to {args.output}")
        return EXIT_OK
    else:
        inst = random_windowed_instance(rng, args.m, args.n,
                                        max_cost=args.max_cost,
                                        max_demand=args.max_demand)
    return _save_monge_instance(inst, args.output)


def cmd_bench(args) -> int:
    try:
        epsilons = [(e, _epsilon(e)) for e in args.epsilons.split(",") if e]
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)
    paths = sorted(glob.glob(args.suite))
    rows: List[dict] = []
    fieldnames = ["instance", "m", "n", "total_demand", "algorithm",
                  "epsilon", "cost", "oracle_cost", "ratio", "wall_ms"]
    for path in paths:
        try:
            inst = _load(path)
        except (OSError, ValueError, KeyError):
            rows.append({"instance": path, "algorithm": "error"})
            continue
        oracle_cost = None
        if inst.m <= args.oracle_max_m:
            try:
                oracle_cost = brute_force_optimum(inst).optimum
            except ValueError:  # over the oracle's demand cap: no ratio
                pass
        base = {"instance": path, "m": inst.m, "n": inst.n,
                "total_demand": inst.total_demand}

        def record(algorithm, epsilon, cost, wall):
            row = dict(base, algorithm=algorithm, epsilon=epsilon,
                       cost=str(Fraction(cost)) if not is_inf(cost) else "inf",
                       wall_ms=round(wall * 1000, 3))
            if oracle_cost is not None and not is_inf(oracle_cost) \
                    and not is_inf(cost):
                row["oracle_cost"] = str(Fraction(oracle_cost))
                row["ratio"] = _ratio(cost, oracle_cost)
            rows.append(row)

        solution = None
        if inst.total_demand <= args.exact_max_demand:
            start = time.perf_counter()
            try:
                solution = solve_exact(inst)
            except DemandCapExceeded:  # the exact DP's own cap is lower
                pass
        if solution is None:
            rows.append(dict(base, algorithm="exact", cost="skipped"))
        else:
            record("exact", None, solution.total_cost,
                   time.perf_counter() - start)
        for text, eps in epsilons:
            start = time.perf_counter()
            try:
                cost = run_fptas(inst, eps).solution.total_cost
            except Infeasible:
                cost = float("inf")
            record("fptas", text, cost, time.perf_counter() - start)
    with open(args.csv, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    times = [r["wall_ms"] for r in rows
             if r.get("algorithm") == "fptas" and "wall_ms" in r]
    if times:
        print(f"{len(rows)} rows, median fptas wall {statistics.median(times)} ms")
    else:
        print(f"{len(rows)} rows")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mongecfl",
        description="Capacitated facility location with Monge transport "
                    "costs: exact DP, FPTAS, reductions, checkers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--input", required=True)
    p.add_argument("--algorithm", choices=["exact", "fptas", "two-class"],
                   default="exact")
    p.add_argument("--epsilon", help="rational, e.g. 1/10")
    p.add_argument("--partition", help="JSON file with s1/s2 client lists")
    p.add_argument("--output", help="solution JSON path")
    p.add_argument("--verify-with-oracle", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="verify the Monge property")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["full", "adjacent", "windowed"],
                   default="full")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("convert", help="reduce other problems to instances")
    p.add_argument("--from", dest="source", required=True,
                   choices=["lot-sizing", "multi-item", "single-demand"])
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("generate", help="write a random instance")
    p.add_argument("--kind", choices=["monge", "lot-sizing", "windowed"],
                   default="monge")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-cost", type=int, default=10)
    p.add_argument("--max-demand", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="run solvers over a suite, emit CSV")
    p.add_argument("--suite", required=True, help="glob of instance files")
    p.add_argument("--epsilons", default="1,1/2,1/10")
    p.add_argument("--oracle-max-m", type=int, default=10)
    p.add_argument("--exact-max-demand", type=int, default=1000,
                   help="skip the exact DP on instances with more demand")
    p.add_argument("--csv", required=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except OSError as exc:  # commands catch their reads, so a write
        return _fail(str(exc), EXIT_INPUT)


if __name__ == "__main__":
    sys.exit(main())
