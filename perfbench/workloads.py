"""Seeded workloads: the inputs and the operations of one pass.

A pass is a fixed list of operations, each one public-API call
sequence as ``mongecfl solve``/``convert`` would make it.  ``build``
generates every input up front; ``Op.call`` is the timed part and
``Op.check`` verifies its output afterwards against references that
do not come from the solver under test.

Calls go through module attributes (``fptas.run_fptas``, not a bound
name) so the tracer's wrappers take effect.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from mongecfl import exact, extensions, fptas, io, model, oracle, reductions
from mongecfl.generate import (monge_cost_matrix, random_lot_sizing,
                               random_monge_instance,
                               random_two_class_instance)
from mongecfl.model import Client, Facility, Instance, is_inf

import certify

# Criterion-8 instances whose scale exponent escalates at eps = 1/10, so
# every pass covers the _ScaleError retry path.  The set is fixed and the
# seed only orders the operations: a seeded instance's 4-6 s of solve
# time, on top of host noise, puts the run-to-run spread of a pass near
# the largest allowed bound.
DENSE_SEEDS = (3, 9)
DENSE_EPSILONS = (Fraction(1, 10), Fraction(1, 100))
LOT_FILES = 12          # horizon-12 files solved end to end
LOT_CONVERT_FILES = 2   # horizon-80 files that are only converted
LOT_EPS = Fraction(1, 2)
# Two-class solve times spread over three orders of magnitude between
# instances, so a seeded instance moves a pass by more than any usable
# bound: the instance set is fixed (criterion-9 style draws) and the
# seed only orders the operations.  Split draw 5 is left out on purpose:
# it takes about 57 s at eps = 1/2 (see README, known behaviour).
TWO_CLASS_DEGENERATE_SEEDS = tuple(range(10))
TWO_CLASS_SPLIT_SEEDS = tuple(range(5))
DEGENERATE_EPS = Fraction(1, 100)
SPLIT_EPS = Fraction(1, 2)


class Failure:
    """An operation that raised; keeps the formatted traceback."""

    def __init__(self, text: str):
        self.text = text


Verdict = Tuple[List[str], Optional[Fraction]]  # problems, cost / optimum


@dataclass
class Op:
    kind: str  # exact | fptas | two_class | convert
    label: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]
    # facts about an output read from its public fields (dtype, scale,
    # grid size, ...), for the per-layer counts and the invariants
    facts: Callable[[object], dict] = lambda output: {}
    # the part of an output that ``check`` needs; the rest (FPTAS tables)
    # is dropped after each pass so memory does not grow with passes
    keep: Callable[[object], object] = lambda output: output


def _solution(result):
    return result.solution


def digest(inst: Instance) -> str:
    text = repr((inst.facilities, inst.clients, inst.costs))
    return hashlib.sha256(text.encode()).hexdigest()


class References:
    """Brute-force optima and scalar FPTAS costs, cached by digest."""

    def __init__(self):
        self._cache: Dict[tuple, object] = {}

    def _get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def optimum(self, inst: Instance):
        return self._get(("opt", digest(inst)), lambda: oracle.brute_force_optimum(
            inst, demand_cap=inst.total_demand).optimum)

    def scalar_fptas_cost(self, inst: Instance, eps: Fraction):
        return self._get(("fptas", digest(inst), eps), lambda: Fraction(
            fptas.run_fptas(inst, eps).solution.total_cost))


def _approx_verdict(refs: References, inst: Instance, solution,
                    eps: Fraction) -> Verdict:
    problems = certify.certify_solution(inst, solution)
    opt = refs.optimum(inst)
    if is_inf(opt):
        return problems + ["reference optimum is infinite"], None
    if problems:
        return problems, None
    cost = Fraction(solution.total_cost)
    if cost > (1 + eps) * opt:
        return [f"cost {cost} above (1+{eps}) x optimum {opt}"], None
    return [], cost / opt if opt else Fraction(1)


def _exact_verdict(refs: References, inst: Instance, solution) -> Verdict:
    problems = certify.certify_solution(inst, solution)
    opt = refs.optimum(inst)
    if not problems and solution.total_cost != opt:
        problems.append(f"exact cost {solution.total_cost} != optimum {opt}")
    return problems, None


def dense_instance(rng: random.Random) -> Instance:
    """The criterion-8 generator: 8x8 dense Monge, demands 250-500."""
    costs = monge_cost_matrix(rng, 8, 8, 8)
    clients = [Client(rng.randint(250, 500)) for _ in range(8)]
    total = sum(c.demand for c in clients)
    facilities = [Facility(rng.randint(500, 1500),
                           rng.randint(total // 8, total // 2))
                  for _ in range(8)]
    return Instance(facilities, clients, costs)


def _has_inf(inst: Instance) -> bool:
    return any(is_inf(c) for row in inst.costs for c in row)


def fill_facts(inst: Instance, result) -> dict:
    """Facts about one run_fptas table fill, from public values only.

    The fill scales by base**k, base the lcm of the finite costs above
    1; k starts at min(m, 2) and doubles (capped at m) on each retry.
    """
    base = 1
    for row in inst.costs:
        for c in row:
            if not is_inf(c) and c > 1:
                base = math.lcm(base, c)
    k, rest = 0, result.table.scale
    while base > 1 and rest % base == 0 and rest > 1:
        rest //= base
        k += 1
    attempts, step = 1, min(inst.m, 2)
    while base > 1 and step < k:
        step = min(inst.m, 2 * step)
        attempts += 1
    return {"m": inst.m, "grid_size": result.grid.size,
            "exponent": k if base > 1 else None, "attempts": attempts,
            "object": result.table.rows[0].dtype == np.dtype(object),
            "has_inf": _has_inf(inst)}


def _fptas_op(refs: References, label: str, inst: Instance,
              eps: Fraction) -> Op:
    def check(solution) -> Verdict:
        return _approx_verdict(refs, inst, solution, eps)
    return Op("fptas", f"{label}/eps={eps}",
              lambda: fptas.run_fptas(inst, eps), check,
              lambda result: fill_facts(inst, result), _solution)


def _dense_ops(seed: int, refs: References, workdir: Path) -> List[Op]:
    instances = {s: dense_instance(random.Random(s)) for s in DENSE_SEEDS}
    ops = [_fptas_op(refs, f"c8-{s}", inst, eps)
           for s, inst in instances.items() for eps in DENSE_EPSILONS]
    random.Random(f"fptas-dense:{seed}").shuffle(ops)
    return ops


def _saved_problems(solution, path: Path) -> List[str]:
    data = json.loads(path.read_text("utf-8"))
    return certify.saved_solution_problems(solution, data)


def _lot_file_ops(refs: References, label: str, path: Path) -> List[Op]:
    """convert -> exact -> fptas on one horizon-12 file."""
    state: Dict[str, Instance] = {}
    exact_out = path.with_suffix(".exact.json")
    fptas_out = path.with_suffix(".fptas.json")
    ls_data = json.loads(path.read_text("utf-8"))

    def convert():
        inst = reductions.lot_sizing_to_cfl(io.load_lot_sizing(path))
        problems = [p for p in model.validate_instance(inst)
                    if not p.startswith("warning")]
        witness = model.check_monge_full(inst.costs)
        state["inst"] = inst
        return inst, problems, witness

    def check_convert(out) -> Verdict:
        inst, problems, witness = out
        problems = list(problems) + certify.reduction_problems(ls_data, inst)
        if witness is not None:
            problems.append(f"reduction not Monge: {witness}")
        return problems, None

    def solve_exact():
        solution = exact.solve_exact(state["inst"])
        io.save_solution(solution, exact_out)
        return solution

    def check_exact(solution) -> Verdict:
        problems, ratio = _exact_verdict(refs, state["inst"], solution)
        return problems + _saved_problems(solution, exact_out), ratio

    def solve_fptas():
        result = fptas.run_fptas(state["inst"], LOT_EPS)
        io.save_solution(result.solution, fptas_out)
        return result

    def check_fptas(solution) -> Verdict:
        problems, ratio = _approx_verdict(refs, state["inst"], solution,
                                          LOT_EPS)
        return problems + _saved_problems(solution, fptas_out), ratio

    return [Op("convert", f"{label}/convert", convert, check_convert,
               lambda out: {"has_inf": _has_inf(out[0])}),
            Op("exact", f"{label}/exact", solve_exact, check_exact),
            Op("fptas", f"{label}/eps={LOT_EPS}", solve_fptas, check_fptas,
               lambda result: fill_facts(state["inst"], result), _solution)]


def _lot_convert_op(label: str, path: Path) -> Op:
    """What ``mongecfl convert --from lot-sizing`` does to one file."""
    out_path = path.with_suffix(".cfl.json")
    ls_data = json.loads(path.read_text("utf-8"))

    def convert():
        inst = reductions.lot_sizing_to_cfl(io.load_lot_sizing(path))
        witness = model.check_monge_full(inst.costs)
        if witness is None:
            io.save_instance(inst, out_path)
        return witness

    def check(witness) -> Verdict:
        if witness is not None:
            return [f"reduction not Monge: {witness}"], None
        saved = json.loads(out_path.read_text("utf-8"))
        return certify.reduction_problems(
            ls_data, certify.instance_from_json(saved)), None

    return Op("convert", f"{label}/convert", convert, check)


def _lot_ops(seed: int, refs: References, workdir: Path) -> List[Op]:
    rng = random.Random(f"lotsizing:{seed}")
    params = dict(max_cost=200, max_demand=30, max_capacity=60,
                  feasible=True)
    groups = []
    for k in range(LOT_FILES):
        path = workdir / f"ls12-{k:02d}.json"
        io.save_lot_sizing(random_lot_sizing(rng, 12, **params), path)
        groups.append(_lot_file_ops(refs, f"ls12-{k:02d}", path))
    for k in range(LOT_CONVERT_FILES):
        path = workdir / f"ls80-{k:02d}.json"
        io.save_lot_sizing(random_lot_sizing(rng, 80, **params), path)
        groups.append([_lot_convert_op(f"ls80-{k:02d}", path)])
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def _two_class_op(refs: References, label: str, inst: Instance,
                  partition, eps: Fraction) -> Op:
    degenerate = not partition.s2

    def check(solution) -> Verdict:
        problems, ratio = _approx_verdict(refs, inst, solution, eps)
        if degenerate:
            scalar = refs.scalar_fptas_cost(inst, eps)
            if Fraction(solution.total_cost) != scalar:
                problems.append(f"degenerate cost {solution.total_cost}"
                                f" != scalar FPTAS cost {scalar}")
        return problems, ratio

    return Op("two_class", f"{label}/eps={eps}",
              lambda: extensions.run_two_class_fptas(inst, partition, eps),
              check, lambda result: {"grid_size": result.grid.size,
                                     "degenerate": degenerate}, _solution)


def _split_instance(rng: random.Random):
    while True:
        inst, s1, s2 = random_two_class_instance(rng, 4, rng.randint(3, 4),
                                                 feasible=True)
        if s1 and s2:
            return inst, extensions.ClientPartition(s1, s2)


def _two_class_ops(seed: int, refs: References, workdir: Path) -> List[Op]:
    ops = []
    for s in TWO_CLASS_DEGENERATE_SEEDS:
        rng = random.Random(s)
        inst = random_monge_instance(rng, rng.randint(3, 4),
                                     rng.randint(3, 4), feasible=True)
        partition = extensions.ClientPartition(range(1, inst.n + 1), ())
        ops.append(_two_class_op(refs, f"degenerate-{s}", inst, partition,
                                 DEGENERATE_EPS))
    for s in TWO_CLASS_SPLIT_SEEDS:
        inst, partition = _split_instance(random.Random(s))
        ops.append(_two_class_op(refs, f"split-{s}", inst, partition,
                                 SPLIT_EPS))
    random.Random(f"two-class:{seed}").shuffle(ops)
    return ops


_BUILDERS = {"fptas-dense": _dense_ops, "lotsizing": _lot_ops,
             "two-class": _two_class_ops}


def build(workload: str, seed: int, workdir: Path,
          refs: References) -> List[Op]:
    """Generate the workload's inputs (files go under ``workdir``)."""
    workdir.mkdir(parents=True, exist_ok=True)
    return _BUILDERS[workload](seed, refs, workdir)


def invariant_violations(workload: str, facts: List[dict]) -> List[str]:
    """Ways this pass failed to exercise the paths its workload is for."""
    fills = [f for f in facts if "object" in f]
    out = []
    if workload == "fptas-dense" and any(f["object"] for f in fills):
        out.append("fptas-dense: a table fill fell back to object dtype")
    if workload == "lotsizing":
        if not all(f["object"] for f in fills):
            out.append("lotsizing: a table fill stayed int64")
        if not all(f["has_inf"] for f in facts if "has_inf" in f):
            out.append("lotsizing: an instance has no infinite cost")
    if workload == "two-class":
        kinds = {f["degenerate"] for f in facts if "degenerate" in f}
        if kinds != {True, False}:
            out.append("two-class: degenerate and split partitions "
                       "are not both present")
    if workload != "two-class" and not fills:
        out.append(f"{workload}: no table fill ran")
    return out
