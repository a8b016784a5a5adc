"""Shared fixtures and independent helper oracles for the test suite."""

import itertools
import random
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np
import pytest

from mongecfl.fptas import (BudgetGrid, ValueTable, _ScaleError,
                            contribution_search_limit)
from mongecfl.kernel import demand_met
from mongecfl.model import Client, Facility, Instance, is_inf
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
