"""Command-line surface.

Exit codes: 0 success, 1 input error (a usage error, or an output file
that cannot be written), 2 infeasible instance, 3 Monge violation.
Commands raise on failure and ``main`` alone turns the failure into its
exit code.  Reports go to standard output as JSON; solution and instance
files are written where the flags say.
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
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import List, Optional

from . import io as mio
from .exact import DEFAULT_DEMAND_CAP, solve_exact
from .extensions import ClientPartition, check_windowed_monge, run_two_class_fptas
from .fptas import run_fptas
from .generate import (random_lot_sizing, random_monge_instance,
                       random_windowed_instance)
from .model import (Infeasible, Instance, MongeWitness, check_monge_full,
                    is_inf, validate_instance)
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


class _NotMonge(Exception):
    """Costs that break the Monge property; the one argument is the
    ``MongeWitness`` or ``WindowViolation`` the checker returned."""


def _require_monge(costs, clients) -> None:
    """Raise ``_NotMonge`` unless the columns of ``clients`` (1-based,
    increasing) are Monge; the witness names instance clients."""
    witness = check_monge_full([[row[j - 1] for j in clients]
                                for row in costs])
    if witness is not None:
        raise _NotMonge(replace(witness, j=clients[witness.j - 1],
                                k=clients[witness.k - 1]))


@contextmanager
def _context(prefix: str):
    """Re-raise a read failure as one ValueError that starts with
    ``prefix``."""
    try:
        yield
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"{prefix}: {exc}") from None


def _digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def _ratio(cost, optimum) -> Optional[str]:
    """cost / optimum as a string; "1" when both are 0, None when only
    the optimum is."""
    if optimum == 0:
        return "1" if cost == 0 else None
    return str(Fraction(cost) / Fraction(optimum))


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


def _run_solver(inst: Instance, algorithm: str, eps=None, partition=None):
    """Run one solver: (solution, or None when infeasible, and the report
    fields cost and wall_ms, plus bound and grid for the grid solvers)."""
    fields = {}
    start = time.perf_counter()
    try:
        if algorithm == "exact":
            solution = solve_exact(inst)
        else:
            result = (run_fptas(inst, eps) if algorithm == "fptas"
                      else run_two_class_fptas(inst, partition, eps))
            solution = result.solution
            fields = dict(bound=result.bound, grid_step=result.grid.K,
                          grid_size=result.grid.size,
                          grid_budget=result.grid_budget)
    except Infeasible:
        solution = None
    fields["wall_ms"] = round((time.perf_counter() - start) * 1000, 3)
    if solution is None or is_inf(solution.total_cost):
        return None, dict(fields, cost="inf")
    return solution, dict(fields, cost=str(Fraction(solution.total_cost)))


def cmd_solve(args) -> int:
    with _context("cannot read instance"):
        inst = _load(args.input)
    if args.algorithm != "exact" and args.epsilon is None:
        raise ValueError("--epsilon is required for this algorithm")
    eps = None if args.epsilon is None else _epsilon(args.epsilon)
    partition = ClientPartition(range(1, inst.n + 1), ())
    if args.algorithm == "two-class" and args.partition:
        with _context("cannot read partition"):
            partition = mio.load_partition(args.partition)
        partition.validate(inst)
    # every solver needs Monge costs on each client class's columns
    for clients in (partition.s1, partition.s2):
        _require_monge(inst.costs, clients)

    digest = _digest(args.input)
    solution, fields = _run_solver(inst, args.algorithm, eps, partition)
    report = RunReport(args.algorithm, digest, epsilon=None
                       if args.algorithm == "exact" else args.epsilon, **fields)
    if solution is None:
        print(json.dumps(asdict(report)))
        return EXIT_INFEASIBLE
    if args.verify_with_oracle:
        with _context("cannot verify with the oracle"):
            optimum = brute_force_optimum(inst).optimum
        report.oracle_cost = str(Fraction(optimum))
        report.ratio = _ratio(solution.total_cost, optimum)
    if args.output:
        mio.save_solution(solution, args.output)
    print(json.dumps(asdict(report)))
    return EXIT_OK


def cmd_check(args) -> int:
    with _context("cannot read instance"):
        inst = _load(args.input)
    if args.mode == "full":
        witness = check_monge_full(inst.costs)
    else:
        witness = check_windowed_monge(inst)
    if witness is not None:
        raise _NotMonge(witness)
    print("pass")
    return EXIT_OK


def _save_monge_instance(inst: Instance, path: str) -> int:
    """Write ``inst`` to ``path`` if its costs are Monge; raise
    ``_NotMonge`` and write nothing otherwise."""
    _require_monge(inst.costs, range(1, inst.n + 1))
    mio.save_instance(inst, path)
    print(f"wrote {inst.m}x{inst.n} instance to {path}")
    return EXIT_OK


def cmd_convert(args) -> int:
    with _context("conversion failed"):
        if args.source == "single-demand":
            inst = _load(args.input)
        else:
            ls = mio.load_lot_sizing(args.input)
            inst = (lot_sizing_to_cfl(ls) if args.source == "lot-sizing"
                    else multi_item_to_cfl(ls))
    if args.source == "single-demand" and inst.n != 1:
        raise ValueError("single-demand conversion needs exactly one client")
    try:
        return _save_monge_instance(inst, args.output)
    except _NotMonge:
        print("internal error: reduction produced a non-Monge matrix",
              file=sys.stderr)
        raise


def cmd_generate(args) -> int:
    if args.m < 1 or args.n < 1:
        raise ValueError("--m and --n must be positive")
    if args.max_demand < 1:
        raise ValueError("--max-demand must be positive")
    if args.max_cost < 0:
        raise ValueError("--max-cost must be nonnegative")
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
    epsilons = [(e, _epsilon(e)) for e in args.epsilons.split(",") if e]
    exact_max_demand = min(args.exact_max_demand, DEFAULT_DEMAND_CAP)
    rows: List[dict] = []
    fieldnames = ["instance", "m", "n", "total_demand", "algorithm",
                  "epsilon", "cost", "oracle_cost", "ratio", "wall_ms"]
    for path in sorted(glob.glob(args.suite)):
        try:
            inst = _load(path)
            _require_monge(inst.costs, range(1, inst.n + 1))
        except (OSError, ValueError, KeyError, _NotMonge):
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
        runs = [("fptas", text, eps) for text, eps in epsilons]
        if inst.total_demand <= exact_max_demand:
            runs.insert(0, ("exact", None, None))
        else:
            rows.append(dict(base, algorithm="exact", cost="skipped"))
        for algorithm, text, eps in runs:
            solution, fields = _run_solver(inst, algorithm, eps)
            row = dict(base, algorithm=algorithm, epsilon=text,
                       cost=fields["cost"], wall_ms=fields["wall_ms"])
            if solution is not None and oracle_cost is not None \
                    and not is_inf(oracle_cost):
                row["oracle_cost"] = str(Fraction(oracle_cost))
                row["ratio"] = _ratio(solution.total_cost, oracle_cost)
            rows.append(row)
    with open(args.csv, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    times = [r["wall_ms"] for r in rows if r["algorithm"] == "fptas"]
    if times:
        print(f"{len(rows)} rows, median fptas wall {statistics.median(times)} ms")
    else:
        print(f"{len(rows)} rows")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so ``main`` reports them like any input error;
    sub-parsers are built from this class too."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--mode", choices=["full", "windowed"],
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        return EXIT_OK
    except _NotMonge as exc:
        witness = exc.args[0]
        if isinstance(witness, MongeWitness):
            print(f"violation at facilities ({witness.h},{witness.i}) "
                  f"clients ({witness.j},{witness.k}): "
                  f"{witness.lhs} > {witness.rhs}")
        else:
            print(f"violation: {witness}")
        return EXIT_NOT_MONGE
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
