"""Shared fixtures and independent helper oracles for the test suite."""

import dataclasses
import itertools
import math
import runpy
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import pytest

from mongecfl.exact import DEFAULT_DEMAND_CAP, DemandCapExceeded, Solution
from mongecfl.extensions import TwoClassResult, _vector_serve
from mongecfl.fptas import (BudgetGrid, ValueTable, find_budget_bound,
                            serve_everything_costs)
from mongecfl.kernel import Amount, Flow, cost_lcm, serve_schedule
from mongecfl.model import (INF, Client, Cost, Facility, Infeasible,
                            Instance, MongeWitness, is_inf)
from mongecfl.reductions import LotSizingInstance

# The benchmark's O(mn) solution certificate and lot-sizing reduction
# check, which import nothing from the library; run from their file
# (compiled, nothing written), so tier-1 and the benchmark check solver
# and reduction outputs with the same code.
CERTIFY_PY = Path(__file__).resolve().parents[1] / "perfbench" / "certify.py"
_CERTIFY = runpy.run_path(str(CERTIFY_PY))
certify_solution = _CERTIFY["certify_solution"]
reduction_problems = _CERTIFY["reduction_problems"]


@pytest.fixture
def ref1() -> Instance:
    """The canonical worked instance: optimum 11, open {1}."""
    return Instance(
        [Facility(3, 5), Facility(10, 5)],
        [Client(2), Client(3)],
        [[1, 2], [3, 1]],
    )


def lot_sizing_brute(ls: LotSizingInstance):
    """Direct lot-sizing optimum, independent of the reduction machinery.

    Enumerates order subsets; for each subset, demands are assigned in
    decreasing period order to the latest usable order with capacity
    left.  Prefix sums H make the cost of serving a period-p demand
    from a period-t order equal H(p) - H(t) with H nondecreasing, so
    pushing units onto the latest reachable orders is optimal for a
    fixed subset.  Returns the minimum total cost, or None if no
    subset is feasible.
    """
    T = ls.horizon
    demand_at = [0] * (T + 1)
    for t, _, a in ls.demands:
        demand_at[t] += a
    periods = [t for t in range(1, T + 1) if demand_at[t] > 0]
    usable = [t for t in range(1, T + 1) if ls.orders[t - 1][1] > 0]
    prefix = [0] * (T + 1)  # prefix[t] = holding cost from period 1 to t
    for t in range(2, T + 1):
        prefix[t] = prefix[t - 1] + ls.holding[t - 2]
    best = None
    for size in range(len(usable) + 1):
        for subset in itertools.combinations(usable, size):
            cap = {t: ls.orders[t - 1][1] for t in subset}
            cost = sum(ls.orders[t - 1][0] for t in subset)
            ok = True
            for p in sorted(periods, reverse=True):
                need = demand_at[p]
                for t in sorted(subset, reverse=True):
                    if t > p or need == 0:
                        continue
                    take = min(cap[t], need)
                    cap[t] -= take
                    need -= take
                    cost += take * (prefix[p] - prefix[t])
                if need > 0:
                    ok = False
                    break
            if ok and (best is None or cost < best):
                best = cost
    return best


def greedy_transport(supplies: Sequence[int], demands: Sequence[int],
                     costs: Sequence[Sequence[Cost]]) -> Flow:
    """Solve a balanced transportation problem with Monge costs (the
    subject of criterion 6).

    Walks facilities and clients in increasing order, sending as much as
    possible from the current client to the current facility.  Optimal
    whenever the costs are Monge.  If positive flow must cross an INF
    edge the flow is still returned with cost INF (structural
    infeasibility).
    """
    if sum(supplies) != sum(demands):
        raise ValueError("total supply must equal total demand")
    m, n = len(supplies), len(demands)
    s = list(supplies)
    d = list(demands)
    entries: Dict[Tuple[int, int], Amount] = {}
    cost: Union[Amount, float] = 0
    i = j = 0
    while i < m and j < n:
        amt = min(s[i], d[j])
        if amt > 0:
            entries[(i + 1, j + 1)] = amt
            c = costs[i][j]
            cost = INF if is_inf(c) else cost + c * amt
        s[i] -= amt
        d[j] -= amt
        if d[j] == 0:
            j += 1
        else:
            i += 1
    return Flow(entries, cost)


def recompute_flow_cost(flow: Flow, costs: Sequence[Sequence[Cost]]):
    """Transport cost of ``flow`` read as amounts (not fractions) per
    (facility, client); INF if a positive amount uses an INF edge."""
    total: Amount = 0
    for (i, j), x in flow.entries.items():
        if x == 0:
            continue
        c = costs[i - 1][j - 1]
        if is_inf(c):
            return INF
        total += c * x
    return total


def extended_grid(grid: BudgetGrid, budget: int) -> BudgetGrid:
    """``grid`` with its endpoint raised to cover ``budget``, if needed."""
    return dataclasses.replace(
        grid, size=max(grid.size, math.ceil(budget / grid.K) + 1))


def vector_demand_met(inst: Instance, partition, i: int, d_met,
                      money1, money2) -> Tuple[Fraction, Fraction]:
    """Demand an open facility i meets per class on transport budgets
    (money1, money2): the totals of its two extraction schedules."""
    return tuple(sum((amount for _, amount in schedule), Fraction(0))
                 for schedule in _vector_serve(inst, partition, i, d_met, 1,
                                               money1, money2))


def demand_met(inst: Instance, i: int, d_met: Amount,
               budget: Amount) -> Fraction:
    """Demand facility i can meet with the given budget, after d_met was
    already met right-to-left by later facilities: the total of its
    ``serve_schedule``.  Never exceeds U_i."""
    return serve_schedule(inst, i, d_met, budget)[0]


# The ``Fraction`` right-to-left serve walk that the scaled-integer
# ``kernel.ServeCurve`` replaced, unchanged (reference for
# ``ServeCurve``, ``serve_schedule`` and ``demand_met``).


class ReferenceServeCurve:
    """Uncapped right-to-left serve of one client class by facility i.

    ``d_met`` units of the class are already met right to left by later
    facilities.  Spending money x on the residual clients, from the
    right, serves f(x); ``money[k]`` and ``amount[k]`` are the money
    and amount once the first k of them are fully served.  The walk
    stops at the first infinite cost, and f is constant from
    ``money[-1]`` (the saturation money) on.
    """

    __slots__ = ("clients", "money", "amount")

    def __init__(self, inst: Instance, i: int, members: Sequence[int],
                 d_met: Amount):
        self.clients: List[Tuple[int, int]] = []  # (client, cost) in order
        self.money: List[Amount] = [0]
        self.amount: List[Amount] = [0]
        left = d_met
        for j in reversed(members):
            r = inst.demand(j)
            if left > 0:
                take = min(r, left)
                r -= take
                left -= take
            if r == 0:
                continue
            c = inst.cost(i, j)
            if is_inf(c):
                break
            self.clients.append((j, c))
            self.money.append(self.money[-1] + c * r)
            self.amount.append(self.amount[-1] + r)

    def served(self, money: Amount) -> Amount:
        """f(money): demand served before the capacity binds."""
        k = bisect_right(self.money, money) - 1
        if k == len(self.clients):
            return self.amount[k]
        # a zero-cost next client would share money[k], so its cost is > 0
        return self.amount[k] + Fraction(money - self.money[k],
                                         self.clients[k][1])

    def schedule(self, money: Amount, cap: Amount,
                 ) -> List[Tuple[int, Fraction]]:
        """(client, amount) served with ``money`` and capacity ``cap``."""
        left = min(cap, self.served(money))
        out: List[Tuple[int, Fraction]] = []
        for k, (j, _) in enumerate(self.clients):
            if left <= 0:
                break
            take = min(self.amount[k + 1] - self.amount[k], left)
            out.append((j, Fraction(take)))
            left -= take
        return out


# The scaled-integer ``kernel.ServeCurve`` walk that the cut of a
# ``kernel.ServeFamily`` replaced, unchanged (reference for
# ``ServeFamily`` and ``ServeCurve``).


class ReferenceIntegerServeCurve:
    """Right-to-left serve of one client class by facility i, up to its
    capacity.

    Demand and money are integers scaled by ``scale``: ``d_met / scale``
    units of the class are already met right to left by later
    facilities.  Spending money x on the residual clients, from the
    right, serves f(x); ``money[k]`` (scaled by ``scale``) and
    ``amount[k]`` (scaled by ``unit = scale * lcm``) are the money and
    amount once the first k of them are served.  ``lcm`` is a multiple
    of every finite positive cost facility i may reach, so a partial
    serve (x - money[k]) * lcm / c is a whole number of units.  The
    walk stops at the first infinite cost or where facility i's
    capacity binds: the last client served then gets only what the
    capacity leaves, so ``amount[-1]`` never exceeds the capacity.  f
    is constant from ``money[-1]`` (the saturation money) on.
    """

    __slots__ = ("clients", "money", "amount", "lcm", "unit")

    def __init__(self, inst: Instance, i: int, members: Sequence[int],
                 d_met: int, scale: int, lcm: int):
        self.lcm = lcm
        self.unit = scale * lcm
        # (client, cost) in serving order, and the breakpoints
        self.clients = clients = []
        self.money = moneys = [0]
        self.amount = amounts = [0]
        row = inst.costs[i - 1]
        demands = inst.clients
        room = inst.facilities[i - 1].capacity * scale
        left = d_met
        money = amount = 0
        for j in reversed(members):
            r = demands[j - 1].demand * scale - left
            if r <= 0:  # met by later facilities
                left = -r
                continue
            left = 0
            c = row[j - 1]
            if c == INF:
                break
            if r > room:
                r = room
            clients.append((j, c))
            money += c * r
            amount += r * lcm
            moneys.append(money)
            amounts.append(amount)
            room -= r
            if room == 0:
                break

    def served(self, money: int) -> int:
        """f(money), scaled by ``unit``, for ``money`` scaled by
        ``scale``."""
        k = bisect_right(self.money, money) - 1
        if k == len(self.clients):
            return self.amount[k]
        # a zero-cost next client would share money[k], so its cost is > 0
        return self.amount[k] + ((money - self.money[k]) * self.lcm
                                 // self.clients[k][1])

    def schedule(self, amount: int) -> List[Tuple[int, Fraction]]:
        """(client, amount) in serving order that makes up ``amount``
        (scaled by ``unit``, at most ``served`` of some money); amounts
        are unscaled."""
        out: List[Tuple[int, Fraction]] = []
        for (j, _), start, end in zip(self.clients, self.amount,
                                      self.amount[1:]):
            if amount <= start:
                break
            out.append((j, Fraction(min(end, amount) - start, self.unit)))
        return out


def _reference_money_after_opening(inst: Instance, i: int, d_met: Amount,
                                   budget: Amount) -> Amount:
    """Budget left once facility i is open; negative if it cannot open."""
    if d_met < 0 or budget < 0:
        raise ValueError("d_met and budget must be nonnegative")
    if d_met > inst.total_demand:
        raise ValueError("d_met must not exceed the total demand")
    return budget - inst.facilities[i - 1].open_cost


def reference_serve_schedule(inst: Instance, i: int, d_met: Amount,
                             budget: Amount,
                             ) -> Tuple[Amount, List[Tuple[int, Amount]]]:
    """Open facility i and serve residual demand right-to-left on a budget.

    Returns (total served, [(client, amount)] in serving order).  Serves
    nothing if the budget cannot cover the opening cost.  Serving stops
    at the first client it cannot serve fully (budget or capacity bound)
    or whose cost from i is infinite; fractional amounts are exact
    rationals.
    """
    money = _reference_money_after_opening(inst, i, d_met, budget)
    if money < 0:
        return Fraction(0), []
    served = ReferenceServeCurve(inst, i, range(1, inst.n + 1),
                                 d_met).schedule(
        money, inst.facilities[i - 1].capacity)
    return sum((amount for _, amount in served), Fraction(0)), served


def reference_demand_met(inst: Instance, i: int, d_met: Amount,
                         budget: Amount) -> Amount:
    """Demand facility i can meet with the given budget, after d_met was
    already met right-to-left by later facilities.  Never exceeds U_i."""
    money = _reference_money_after_opening(inst, i, d_met, budget)
    if money < 0:
        return Fraction(0)
    return min(inst.facilities[i - 1].capacity,
               ReferenceServeCurve(inst, i, range(1, inst.n + 1),
                                   d_met).served(money))


def exact_value_function(inst: Instance, i: int, b: int,
                         budget_cap: int = 5000) -> Fraction:
    """Unrounded value function over all integer budgets (test oracle).

    Maximum demand facilities i..m can meet spending at most b, serving
    right to left.  Enumerates every integer carry-over budget, so it is
    only usable at desk scale.
    """
    if b > budget_cap:
        raise ValueError(f"budget {b} exceeds enumeration cap {budget_cap}")
    memo: Dict[Tuple[int, int], Fraction] = {}

    def value(i: int, b: int) -> Fraction:
        if i == inst.m + 1:
            return Fraction(0)
        key = (i, b)
        if key not in memo:
            best = Fraction(-1)
            for bp in range(b + 1):
                tail = value(i + 1, bp)
                cand = tail + demand_met(inst, i, tail, b - bp)
                if cand > best:
                    best = cand
            memo[key] = best
        return memo[key]

    return value(i, b)


def _cost_scale_base(inst: Instance) -> int:
    """lcm of the finite nonzero cost entries."""
    return math.lcm(*map(cost_lcm, inst.costs))


class _ScaleError(Exception):
    """A scaled division came out inexact; retry with a larger scale."""


class _ServeCurve:
    """Demand served by one facility as a function of spend, at a fixed
    already-met demand; exact in scaled-integer arithmetic."""

    def __init__(self, inst: Instance, i: int, d_scaled, scale: int, dtype):
        self.open_cost = inst.facilities[i - 1].open_cost
        residual = [d * scale for d in
                    (inst.demand(j) for j in range(1, inst.n + 1))]
        left = d_scaled
        for idx in range(inst.n - 1, -1, -1):
            if left <= 0:
                break
            take = min(residual[idx], left)
            residual[idx] -= take
            left -= take
        cum_amt = [0]
        cum_cost = [0]
        rates: List[int] = []  # cost rate of the segment ending at index t+1
        cap_left = inst.facilities[i - 1].capacity * scale
        for idx in range(inst.n - 1, -1, -1):
            r = residual[idx]
            if r == 0:
                continue
            if cap_left <= 0:
                break
            c = inst.cost(i, idx + 1)
            if is_inf(c):
                break
            amt = min(r, cap_left)
            cum_amt.append(cum_amt[-1] + amt)
            cum_cost.append(cum_cost[-1] + c * amt)
            rates.append(c)
            cap_left -= amt
            if amt < r:
                break
        self.cum_amt = np.array(cum_amt, dtype=dtype)
        self.cum_cost = np.array(cum_cost, dtype=dtype)
        # rate used for a partial serve past breakpoint t (0 where the
        # next segment is free or absent: free segments collapse into
        # equal cum_cost entries and are always fully taken)
        pad = [c if c > 0 else 0 for c in rates] + [0]
        self.partial_rate = np.array(pad, dtype=dtype)
        self.scale = scale
        self.dtype = dtype

    def evaluate(self, spends: np.ndarray) -> np.ndarray:
        """Served demand (scaled) for each spend value in ``spends``."""
        money = (spends - self.open_cost) * self.scale
        money = np.maximum(money, np.zeros(1, dtype=self.dtype))
        closed = spends < self.open_cost
        idx = np.searchsorted(self.cum_cost, money, side="right") - 1
        served = self.cum_amt[idx].copy()
        rate = self.partial_rate[idx]
        extra_money = money - self.cum_cost[idx]
        nz = rate > 0
        if np.any(nz):
            if np.any(extra_money[nz] % rate[nz] != 0):
                raise _ScaleError
            served[nz] = served[nz] + extra_money[nz] // rate[nz]
        served[closed] = 0
        return served


def grid_points(grid: BudgetGrid) -> List[int]:
    """The budgets of ``grid``: 0, K, ..., (size - 1) * K."""
    return [t * grid.K for t in range(grid.size)]


def reference_fill_table(inst: Instance, grid: BudgetGrid,
                         scale: int) -> ValueTable:
    """Point-by-point table fill (reference for ``build_value_table``).

    Builds one serve curve per (facility, carry-over budget) and
    evaluates it at every grid point; raises ``_ScaleError`` as soon as
    one partial serve is not a whole number of scaled units.
    """
    # headroom for scaled money values: serve-everything cost can exceed
    # the grid endpoint, so bound by whichever is larger
    money_max = max((grid.size - 1) * grid.K,
                    max(serve_everything_costs(inst)))
    max_scaled = (money_max + inst.total_demand) * scale
    dtype: object = np.int64 if max_scaled < 2**62 else object
    size = grid.size
    points = np.array(grid_points(grid), dtype=dtype)
    rows: List[np.ndarray] = [None] * (inst.m + 1)  # type: ignore[list-item]
    choices: List[np.ndarray] = [None] * inst.m  # type: ignore[list-item]
    rows[inst.m] = np.zeros(size, dtype=dtype)
    for i in range(inst.m, 0, -1):
        prev = rows[i]
        row = np.full(size, -1, dtype=dtype)
        choice = np.zeros(size, dtype=np.int64)
        for t in range(size):
            curve = _ServeCurve(inst, i, int(prev[t]) if dtype is np.int64
                                else prev[t], scale, dtype)
            cand = prev[t] + curve.evaluate(points[: size - t])
            better = cand > row[t:]
            row[t:][better] = cand[better]
            choice[t:][better] = t
        rows[i - 1] = row
        choices[i - 1] = choice
    return ValueTable(grid, [scale] * (inst.m + 1), rows, choices)


def reference_value_table(inst: Instance, grid: BudgetGrid) -> ValueTable:
    """``reference_fill_table`` over one scale for the whole table,
    lcm(costs)**k: k starts at min(m, 2) and doubles, capped at m,
    whenever a scaled division comes out inexact.  Denominators only
    enter through the budget-limited partial serve, one cost factor per
    facility level, so k = m always suffices."""
    base = _cost_scale_base(inst)
    k = min(inst.m, 2)
    while True:
        try:
            return reference_fill_table(inst, grid, base ** k)
        except _ScaleError:
            if k >= inst.m:
                raise
            k = min(inst.m, k * 2)


def _reference_class_serve(inst: Instance, i: int, members, d_met, money,
                           cap):
    """Serve one class right-to-left on its own transport budget,
    sharing the facility capacity; mirrors the scalar serving rules."""
    residual = [inst.demand(j) for j in members]
    left = d_met
    for idx in range(len(members) - 1, -1, -1):
        if left <= 0:
            break
        take = min(residual[idx], left)
        residual[idx] -= take
        left -= take
    total = Fraction(0)
    served = []
    for idx in range(len(members) - 1, -1, -1):
        r = residual[idx]
        if r == 0:
            continue
        if cap <= 0:
            break
        c = inst.cost(i, members[idx])
        if is_inf(c):
            break
        amount = min(r, cap)
        if c > 0:
            amount = min(amount, money / c)
        if amount > 0:
            served.append((members[idx], Fraction(amount)))
            total += amount
            cap -= amount
            money -= c * amount
        if amount < r:
            break
    return total, served


def reference_vector_serve(inst: Instance, partition, i: int, d_met,
                           remaining):
    """(t1, t2, schedule1, schedule2) of facility i on a budget vector."""
    b0, b1, b2 = remaining
    f = inst.facilities[i - 1]
    if f.open_cost > b0:
        return Fraction(0), Fraction(0), [], []
    total1, served1 = _reference_class_serve(inst, i, partition.s1, d_met[0],
                                             Fraction(b1), f.capacity)
    total2, served2 = _reference_class_serve(inst, i, partition.s2, d_met[1],
                                             Fraction(b2),
                                             f.capacity - total1)
    return total1, total2, served1, served2


@dataclass
class ReferenceEntry:
    b0: int
    b1: int
    b2: int
    d1: object
    d2: object
    parent: Optional["ReferenceEntry"]
    facility: Optional[int]
    spend: Optional[Tuple[int, int, int]]
    schedule: Optional[Tuple[list, list]]

    @property
    def budget_sum(self) -> int:
        return self.b0 + self.b1 + self.b2

    def dominates(self, other: "ReferenceEntry") -> bool:
        return (self.b0 <= other.b0 and self.b1 <= other.b1
                and self.b2 <= other.b2 and self.d1 >= other.d1
                and self.d2 >= other.d2)


def reference_prune(entries: List[ReferenceEntry]) -> List[ReferenceEntry]:
    """Stable sort, then keep each entry no kept entry dominates."""
    entries.sort(key=lambda e: (e.budget_sum, e.b0, e.b1, e.b2,
                                -e.d1, -e.d2))
    kept: List[ReferenceEntry] = []
    for e in entries:
        if not any(k.dominates(e) for k in kept):
            kept.append(e)
    return kept


def reference_run_two_class(inst: Instance, partition,
                            eps) -> TwoClassResult:
    """Two-class frontier DP by pairwise dominance over ``Fraction``s
    (reference for ``run_two_class_fptas``).

    Expands every frontier entry by every grid spend pair up to the
    class's serve-everything cost, recomputes each serve from scratch
    and stores its schedule.
    """
    partition.validate(inst)
    target1 = sum(inst.demand(j) for j in partition.s1)
    target2 = sum(inst.demand(j) for j in partition.s2)
    try:
        B = find_budget_bound(inst)
    except Infeasible:
        B = (sum(f.open_cost for f in inst.facilities)
             + sum(inst.cost(i, j) * inst.demand(j)
                   for i in range(1, inst.m + 1)
                   for j in range(1, inst.n + 1)
                   if not is_inf(inst.cost(i, j))))
        if B < 1:
            B = 1
    grid = BudgetGrid.for_instance(inst.m, B, eps)
    K = grid.K
    endpoint = (grid.size - 1) * K

    def covers(e):
        return e.d1 >= target1 and e.d2 >= target2

    frontier = [ReferenceEntry(0, 0, 0, Fraction(0), Fraction(0),
                               None, None, None, None)]
    best_cover = None
    for i in range(inst.m, 0, -1):
        open_spend = grid.round_up(inst.facilities[i - 1].open_cost)
        serve_all1 = sum(inst.cost(i, j) * inst.demand(j)
                         for j in partition.s1 if not is_inf(inst.cost(i, j)))
        serve_all2 = sum(inst.cost(i, j) * inst.demand(j)
                         for j in partition.s2 if not is_inf(inst.cost(i, j)))
        nxt = []
        for e in frontier:
            nxt.append(ReferenceEntry(e.b0, e.b1, e.b2, e.d1, e.d2,
                                      e, None, None, None))
            if e.b0 + open_spend > endpoint:
                continue
            max1 = min(endpoint - e.b1, grid.round_up(serve_all1))
            max2 = min(endpoint - e.b2, grid.round_up(serve_all2))
            for s1 in range(0, max1 + 1, K):
                for s2 in range(0, max2 + 1, K):
                    spend = (open_spend, s1, s2)
                    t1, t2, sched1, sched2 = reference_vector_serve(
                        inst, partition, i, (e.d1, e.d2), spend)
                    if t1 + t2 == 0:
                        continue
                    nxt.append(ReferenceEntry(e.b0 + open_spend, e.b1 + s1,
                                              e.b2 + s2, e.d1 + t1,
                                              e.d2 + t2, e, i, spend,
                                              (sched1, sched2)))
        frontier = reference_prune(nxt)
        for e in frontier:
            if covers(e) and (best_cover is None
                              or (e.budget_sum, e.b0, e.b1, e.b2)
                              < (best_cover.budget_sum, best_cover.b0,
                                 best_cover.b1, best_cover.b2)):
                best_cover = e
        if best_cover is not None:
            frontier = [e for e in frontier
                        if e.budget_sum < best_cover.budget_sum
                        or e is best_cover]
    if best_cover is None:
        raise Infeasible("no feasible solution within the budget grid")

    open_facilities = set()
    entries = {}
    transport = Fraction(0)
    e = best_cover
    while e is not None:
        if e.facility is not None:
            open_facilities.add(e.facility)
            for sched in e.schedule:
                for j, amount in sched:
                    entries[(e.facility, j)] = (
                        entries.get((e.facility, j), Fraction(0))
                        + Fraction(amount, inst.demand(j)))
                    transport += inst.cost(e.facility, j) * amount
        e = e.parent
    opening = sum(inst.facilities[i - 1].open_cost for i in open_facilities)
    solution = Solution(open_facilities, Flow(entries, transport),
                        opening + transport)
    return TwoClassResult(solution, best_cover.budget_sum,
                          (best_cover.b0, best_cover.b1, best_cover.b2),
                          B, grid)


def state_instance(inst: Instance, i: int, j: int, d: int) -> Instance:
    """The exact DP's state (i, j, d), d >= 1, as an instance of its own:
    facilities i..m, client j with demand d, then clients j+1..n."""
    clients = [dataclasses.replace(inst.clients[j - 1], demand=d),
               *inst.clients[j:]]
    return Instance(inst.facilities[i - 1:], clients,
                    [row[j - 1:] for row in inst.costs[i - 1:]])


class ReferenceExactSolver:
    """Top-down memoized evaluation of the (i, j, d) recurrence
    (reference for ``ExactSolver``).

    Each solve owns its memo table; separate solves are independent.
    """

    def __init__(self, inst: Instance, demand_cap: int = DEFAULT_DEMAND_CAP):
        if inst.total_demand > demand_cap:
            raise DemandCapExceeded(
                f"total demand {inst.total_demand} exceeds cap {demand_cap}; "
                "use the FPTAS for large demands")
        self.inst = inst
        # suffix_demand[j] = sum of demands of clients j+1..n (1-based j)
        self.suffix = [0] * (inst.n + 2)
        for j in range(inst.n - 1, 0, -1):
            self.suffix[j] = self.suffix[j + 1] + inst.demand(j + 1)
        self._memo: Dict[Tuple[int, int, int], Cost] = {}
        # best choice per state: None = leave facility i closed, else u
        self._choice: Dict[Tuple[int, int, int], Optional[int]] = {}

    def _pour(self, i: int, j: int, d: int, u_max: int):
        """Serve units from facility i one at a time, starting at client
        j with d units left, filling clients j, j + 1, ... in order.

        Yields, for u = 1..u_max, the client of the u-th unit, the
        transport cost of the u units, and the state after them: the
        first client with demand left and its units left (n + 1 and 0 if
        none).  Stops before the first unit of infinite cost, since
        every larger u serves it too.  u_max must not exceed the demand
        left.
        """
        inst = self.inst
        k, left = j, d
        while left == 0 and k <= inst.n:
            k += 1
            left = inst.demand(k) if k <= inst.n else 0
        cost: Cost = 0
        for _ in range(u_max):
            client = k
            c = inst.cost(i, client)
            if is_inf(c):
                return
            cost += c
            left -= 1
            while left == 0 and k <= inst.n:
                k += 1
                left = inst.demand(k) if k <= inst.n else 0
            yield client, cost, k, left

    def value(self, i: int, j: int, d: int) -> Cost:
        inst = self.inst
        if j == inst.n + 1:
            return 0
        if i == inst.m + 1:
            return INF if d + self.suffix[j] > 0 else 0
        key = (i, j, d)
        if key in self._memo:
            return self._memo[key]

        best = self.value(i + 1, j, d)
        best_u: Optional[int] = None
        f = inst.facilities[i - 1]
        u_max = min(f.capacity, d + self.suffix[j])
        for u, (_, transport, k, left) in enumerate(
                self._pour(i, j, d, u_max), 1):
            tail = self.value(i + 1, k, left)
            if is_inf(tail):
                continue
            cand = f.open_cost + transport + tail
            if cand < best:
                best = cand
                best_u = u
        self._memo[key] = best
        self._choice[key] = best_u
        return best

    def solve(self) -> Solution:
        inst = self.inst
        cost = self.value(1, 1, inst.demand(1))
        if is_inf(cost):
            return Solution(set(), Flow({}, INF), INF)

        open_facilities = set()
        entries: Dict[Tuple[int, int], Amount] = {}
        i, j, d = 1, 1, inst.demand(1)
        while i <= inst.m and j <= inst.n:
            u = self._choice.get((i, j, d))
            if u is not None:
                open_facilities.add(i)
                units: Dict[int, int] = {}
                for k, _, after_j, after_d in self._pour(i, j, d, u):
                    units[k] = units.get(k, 0) + 1
                for k, amount in units.items():
                    entries[(i, k)] = Fraction(amount, inst.demand(k))
                j, d = after_j, after_d
            i += 1
        flow = Flow(entries, cost - sum(inst.facilities[i - 1].open_cost
                                        for i in open_facilities))
        return Solution(open_facilities, flow, cost)


def reference_level(solver, i: int, nxt: List[Cost]):
    """Row i of ``solver``'s DP from row i + 1, sweeping u = 1, 2, ...
    one unit at a time (reference for ``ExactSolver._level``): the row,
    the chosen u per S of level i's range, and the serves swept."""
    total, lo, hi = solver.total, solver._low[i], solver._reach[i]
    f = solver.inst.facilities[i - 1]
    unit_cost = [solver.inst.costs[i - 1][k] for k in solver._unit_client]
    row: List[Cost] = [INF] * (total + 1)
    choice = array("q")
    steps = 0
    for S in range(lo, hi + 1):
        best, best_u, cost = nxt[S], 0, f.open_cost
        t = S
        while t < min(S + f.capacity, total) and unit_cost[t] != INF:
            cost += unit_cost[t]
            if cost + nxt[t + 1] < best:
                best, best_u = cost + nxt[t + 1], t + 1 - S
            t += 1
        steps += t - S
        row[S] = best
        choice.append(best_u)
    return row, choice, steps


def reference_check_monge_full(costs) -> Optional[MongeWitness]:
    """Check every (h<i, j<k) quadruple; None means the matrix is Monge
    (reference for ``check_monge_full``).

    Returns the lexicographically first (h, i, j, k) witness otherwise.
    O(m^2 n^2); works with INF entries.
    """
    m = len(costs)
    n = len(costs[0]) if m else 0
    for h in range(m):
        for i in range(h + 1, m):
            for j in range(n):
                for k in range(j + 1, n):
                    lhs = costs[h][j] + costs[i][k]
                    rhs = costs[h][k] + costs[i][j]
                    if lhs > rhs:
                        return MongeWitness(h + 1, i + 1, j + 1, k + 1, lhs, rhs)
    return None
