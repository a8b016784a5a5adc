"""Output checks for the benchmark that do not trust the solvers.

``certify`` is an O(mn) feasibility certificate for a claimed solution;
``expected_reduction`` rebuilds the facility-location form of a
single-item lot-sizing file straight from the file format, so the
``convert`` path is checked without the library's reduction code.
Only the standard library is used here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, Iterable, List, Tuple


def _is_inf(c) -> bool:
    return isinstance(c, float) and math.isinf(c)


def certify(inst, open_facilities: Iterable[int],
            entries: Dict[Tuple[int, int], object], cost) -> List[str]:
    """Problems with a claimed solution; an empty list means it is valid.

    ``entries`` maps (facility, client), both 1-based, to the fraction of
    the client's demand that facility serves.  Checks that every
    client's fractions sum to 1, no facility exceeds its capacity, only
    open facilities serve, no flow uses an infinite edge, and that
    ``cost`` equals the opening plus transport cost recomputed exactly.
    """
    m, n = len(inst.facilities), len(inst.clients)
    problems: List[str] = []
    opened = set(open_facilities)
    for i in sorted(opened):
        if not 1 <= i <= m:
            problems.append(f"open facility {i} out of range")
    total = Fraction(sum(inst.facilities[i - 1].open_cost
                         for i in opened if 1 <= i <= m))
    served = [Fraction(0)] * n
    load = [Fraction(0)] * m
    for (i, j), x in entries.items():
        if not (1 <= i <= m and 1 <= j <= n):
            problems.append(f"entry ({i},{j}) out of range")
            continue
        x = Fraction(x)
        if not 0 <= x <= 1:
            problems.append(f"fraction {x} at ({i},{j}) outside [0, 1]")
        if x == 0:
            continue
        if i not in opened:
            problems.append(f"closed facility {i} serves client {j}")
        c = inst.costs[i - 1][j - 1]
        if _is_inf(c):
            problems.append(f"flow on infinite edge ({i},{j})")
            continue
        demand = inst.clients[j - 1].demand
        served[j - 1] += x
        load[i - 1] += x * demand
        total += c * demand * x
    for j, s in enumerate(served, start=1):
        if s != 1:
            problems.append(f"client {j} served fraction {s}, not 1")
    for i, used in enumerate(load, start=1):
        if used > inst.facilities[i - 1].capacity:
            problems.append(f"facility {i} carries {used} over capacity "
                            f"{inst.facilities[i - 1].capacity}")
    if _is_inf(cost) or not isinstance(cost, (int, Fraction)):
        problems.append(f"cost {cost!r} is not an exact finite rational")
    elif not problems and Fraction(cost) != total:
        problems.append(f"claimed cost {cost} != recomputed {total}")
    return problems


def certify_solution(inst, solution) -> List[str]:
    """``certify`` applied to a library ``Solution``."""
    return certify(inst, solution.open, solution.assignment.entries,
                   solution.total_cost)


def solution_from_json(data: dict):
    """(open, entries, cost) from the solution file format."""
    entries = {(a["facility"], a["client"]): Fraction(a["fraction"])
               for a in data["assignment"]}
    cost = math.inf if data["cost"] == "inf" else Fraction(data["cost"])
    return set(data["open"]), entries, cost


def saved_solution_problems(solution, data: dict) -> List[str]:
    """Differences between an in-memory solution and its saved file."""
    opened, entries, cost = solution_from_json(data)
    want = {k: Fraction(v) for k, v in solution.assignment.entries.items()
            if v != 0}
    problems = []
    if opened != set(solution.open):
        problems.append("saved open set differs")
    if entries != want:
        problems.append("saved assignment differs")
    if cost != Fraction(solution.total_cost):
        problems.append("saved cost differs")
    return problems


def expected_reduction(ls: dict):
    """(facilities, demands, costs) of a single-item lot-sizing file.

    Facilities are (order cost, capacity) per period; a zero-capacity
    order keeps its slot with capacity 1 and an all-infinite row.
    Clients are the periods with positive demand, in period order.  A
    period-p demand costs the summed holding cost over [t, p) from a
    period-t order, and is infinite from an order after p.
    """
    horizon = ls["horizon"]
    by_period: Dict[int, int] = {}
    for d in ls["demands"]:
        by_period[d["period"]] = by_period.get(d["period"], 0) + d["amount"]
    periods = [p for p in sorted(by_period) if by_period[p] > 0]
    prefix = [0] * (horizon + 1)  # prefix[t] = holding cost over [1, t)
    for t in range(2, horizon + 1):
        prefix[t] = prefix[t - 1] + ls["holding"][t - 2]
    facilities, costs = [], []
    for t, order in enumerate(ls["orders"], start=1):
        usable = order["capacity"] > 0
        facilities.append((order["cost"], order["capacity"] if usable else 1))
        costs.append([prefix[p] - prefix[t] if usable and t <= p else math.inf
                      for p in periods])
    return facilities, [by_period[p] for p in periods], costs


def instance_from_json(data: dict) -> SimpleNamespace:
    """An instance-shaped view of the instance file format."""
    return SimpleNamespace(
        facilities=[SimpleNamespace(**f) for f in data["facilities"]],
        clients=[SimpleNamespace(demand=c["demand"]) for c in data["clients"]],
        costs=[[math.inf if c == "inf" else c for c in row]
               for row in data["costs"]])


def reduction_problems(ls: dict, inst) -> List[str]:
    """Differences between a converted instance and the expected form."""
    facilities, demands, costs = expected_reduction(ls)
    problems = []
    if [(f.open_cost, f.capacity) for f in inst.facilities] != facilities:
        problems.append("converted facilities differ")
    if [c.demand for c in inst.clients] != demands:
        problems.append("converted demands differ")
    if [list(row) for row in inst.costs] != costs:
        problems.append("converted costs differ")
    return problems
