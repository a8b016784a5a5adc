"""Shared fixtures and independent helper oracles for the test suite."""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from mongecfl.exact import DEFAULT_DEMAND_CAP, DemandCapExceeded, Solution
from mongecfl.extensions import TwoClassResult
from mongecfl.fptas import (BudgetGrid, ValueTable, _ScaleError,
                            contribution_search_limit, find_budget_bound)
from mongecfl.kernel import Amount, Flow, demand_met, greedy_serve
from mongecfl.model import (INF, Client, Cost, Facility, Infeasible,
                            Instance, MongeWitness, is_inf)
from mongecfl.reductions import LotSizingInstance


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


def feasible_monge_instance(rng: random.Random, max_demand: int = 6,
                            max_m: int = 5, max_n: int = 5) -> Instance:
    """Random small feasible Monge instance for approximation tests."""
    from mongecfl.generate import random_monge_instance
    return random_monge_instance(rng, rng.randint(2, max_m),
                                 rng.randint(2, max_n),
                                 max_demand=max_demand, feasible=True)


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


def reference_fill_table(inst: Instance, grid: BudgetGrid,
                         scale: int) -> ValueTable:
    """Point-by-point table fill (reference for ``build_value_table``).

    Builds one serve curve per (facility, carry-over budget) and
    evaluates it at every grid point; raises ``_ScaleError`` as soon as
    one partial serve is not a whole number of scaled units.
    """
    # headroom for scaled money values: serve-everything cost can exceed
    # the grid endpoint, so bound by whichever is larger
    money_max = max((grid.size - 1) * grid.K, contribution_search_limit(inst))
    max_scaled = (money_max + inst.total_demand) * scale
    dtype: object = np.int64 if max_scaled < 2**62 else object
    size = grid.size
    points = np.array(grid.points, dtype=dtype)
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
    return ValueTable(grid, scale, rows, choices)


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
        for u in range(1, u_max + 1):
            serve = greedy_serve(inst, i, u, j, d)
            if is_inf(serve.transport_cost):
                continue
            tail = self.value(i + 1, serve.next_client, serve.demand_remaining)
            if is_inf(tail):
                continue
            cand = f.open_cost + serve.transport_cost + tail
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
                serve = greedy_serve(inst, i, u, j, d)
                ell = serve.next_client
                if ell == j:
                    units = {j: d - serve.demand_remaining}
                else:
                    units = {j: d}
                    for k in range(j + 1, min(ell, inst.n + 1)):
                        units[k] = inst.demand(k)
                    if ell <= inst.n:
                        units[ell] = inst.demand(ell) - serve.demand_remaining
                for k, amount in units.items():
                    if amount > 0:
                        entries[(i, k)] = Fraction(amount, inst.demand(k))
                j, d = ell, serve.demand_remaining
            i += 1
        flow = Flow(entries, cost - sum(inst.facilities[i - 1].open_cost
                                        for i in open_facilities))
        return Solution(open_facilities, flow, cost)


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
