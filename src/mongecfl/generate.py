"""Seeded random instance generators.

Monge cost matrices come from the cumulative construction
c[i][j] = row[i] + col[j] + sum of a nonnegative density over the
rectangle {p >= i} x {q <= j}; the rectangle term makes every Monge
quadruple difference a negated rectangle sum, hence nonpositive.
Staircase-infinity instances come from ``lot_sizing_to_cfl`` applied to
``random_lot_sizing``, and windowed and two-class instances use additive
costs inside monotone release/deadline windows.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from .model import INF, Client, Cost, Facility, Instance, is_inf
from .oracle import min_cost_assignment
from .reductions import LotSizingInstance


def monge_cost_matrix(rng: random.Random, m: int, n: int,
                      max_cost: int) -> List[List[int]]:
    """Random all-finite Monge matrix with entries in [0, max_cost]."""
    row_part = max_cost // 3
    col_part = max_cost // 3
    rect_part = max_cost - row_part - col_part
    rows = [rng.randint(0, row_part) for _ in range(m)]
    cols = [rng.randint(0, col_part) for _ in range(n)]
    density = [[0] * n for _ in range(m)]
    budget = rect_part
    while budget > 0:
        amount = rng.randint(1, budget)
        density[rng.randrange(m)][rng.randrange(n)] += amount
        budget -= amount
    # suffix-rows / prefix-columns rectangle sums
    rect = [[0] * n for _ in range(m)]
    for i in range(m - 1, -1, -1):
        acc = 0
        for j in range(n):
            acc += density[i][j]
            rect[i][j] = acc + (rect[i + 1][j] if i + 1 < m else 0)
    return [[rows[i] + cols[j] + rect[i][j] for j in range(n)]
            for i in range(m)]


def random_monge_instance(rng: random.Random, m: int, n: int,
                          max_cost: int = 10, max_demand: int = 6,
                          max_open_cost: int = 20, max_capacity: int = 15,
                          feasible: bool = False) -> Instance:
    """Random Monge instance; with feasible=True, capacities are resampled
    until they can absorb the total demand."""
    _check_capacity(m, n, max_capacity, feasible)
    costs = monge_cost_matrix(rng, m, n, max_cost)
    while True:
        clients = [Client(rng.randint(1, max_demand)) for _ in range(n)]
        total = sum(c.demand for c in clients)
        facilities = [Facility(rng.randint(0, max_open_cost),
                               rng.randint(1, max_capacity))
                      for _ in range(m)]
        if not feasible or sum(f.capacity for f in facilities) >= total:
            return Instance(facilities, clients, costs)


def random_lot_sizing(rng: random.Random, horizon: int,
                      max_cost: int = 10, max_demand: int = 6,
                      max_holding: int = 10, max_capacity: int = 15,
                      feasible: bool = False) -> LotSizingInstance:
    if max_demand < 1:
        raise ValueError("max_demand must be >= 1: a draw needs a demand")
    if feasible and max_capacity < 1:
        raise ValueError("feasible draws need max_capacity >= 1")
    while True:
        orders = [(rng.randint(0, max_cost), rng.randint(0, max_capacity))
                  for _ in range(horizon)]
        demands = [(t, 0, rng.randint(0, max_demand))
                   for t in range(1, horizon + 1)]
        holding = [rng.randint(0, max_holding) for _ in range(horizon - 1)]
        if all(a == 0 for _, _, a in demands):
            continue
        ls = LotSizingInstance(horizon, orders, demands, holding)
        if not feasible or _lot_sizing_feasible(ls):
            return ls


def _lot_sizing_feasible(ls: LotSizingInstance) -> bool:
    # cumulative capacity up to each period must cover cumulative demand
    demand_at = [0] * (ls.horizon + 1)
    for t, _, a in ls.demands:
        demand_at[t] += a
    cap = need = 0
    for t in range(1, ls.horizon + 1):
        cap += ls.orders[t - 1][1]
        need += demand_at[t]
        if need > cap:
            return False
    return True


def _check_capacity(m: int, n: int, max_capacity: int,
                    feasible: bool) -> None:
    """Every demand is at least 1, so a feasible draw needs m * max_capacity
    >= n."""
    if feasible and m * max_capacity < n:
        raise ValueError(f"no feasible draw: {m} facilities of capacity at "
                         f"most {max_capacity} cannot serve {n} clients")


def _window_instance(rng: random.Random, releases: List[int],
                     deadlines: List[int], m: int, max_cost: int,
                     max_demand: int, max_open_cost: int, max_capacity: int,
                     feasible: bool) -> Optional[Instance]:
    """Additive costs rows[i] + cols[j] inside client j's [release,
    deadline] window and INF outside it, with the first of up to 100
    facility draws that can serve all demand (any draw when feasible is
    False); None if no draw can.  Opening more facilities never makes an
    instance infeasible, so one flow with all of them open decides it."""
    half = max_cost // 2
    rows = [rng.randint(0, half) for _ in range(m)]
    cols = [rng.randint(0, max_cost - half) for _ in releases]
    costs: List[List[Cost]] = [
        [row + col if r <= i <= t else INF
         for col, r, t in zip(cols, releases, deadlines)]
        for i, row in enumerate(rows, 1)]
    clients = [Client(rng.randint(1, max_demand), r, t)
               for r, t in zip(releases, deadlines)]
    for _ in range(100):
        facilities = [Facility(rng.randint(0, max_open_cost),
                               rng.randint(1, max_capacity))
                      for _ in range(m)]
        inst = Instance(facilities, clients, costs)
        if not feasible or not is_inf(min_cost_assignment(
                inst, range(1, m + 1), demand_cap=inst.total_demand)[0]):
            return inst
    return None


def random_windowed_instance(rng: random.Random, m: int, n: int,
                             max_cost: int = 10, max_demand: int = 6,
                             max_open_cost: int = 20, max_capacity: int = 15,
                             feasible: bool = False) -> Instance:
    """Monotone release/deadline windows; additive costs inside windows."""
    _check_capacity(m, n, max_capacity, feasible)
    while True:  # windows may be too tight; redraw the whole instance
        releases = sorted(rng.randint(1, m) for _ in range(n))
        deadlines = sorted(rng.randint(1, m) for _ in range(n))
        inst = _window_instance(
            rng, releases, [max(r, t) for r, t in zip(releases, deadlines)],
            m, max_cost, max_demand, max_open_cost, max_capacity, feasible)
        if inst is not None:
            return inst


def random_two_class_instance(rng: random.Random, m: int, n: int,
                              max_cost: int = 6, max_demand: int = 3,
                              max_open_cost: int = 6, max_capacity: int = 8,
                              feasible: bool = False,
                              ) -> Tuple[Instance, Tuple[int, ...], Tuple[int, ...]]:
    """Instance plus an (s1, s2) split: s1 release-free, s2 with
    nondecreasing release dates; deadlines are open-ended."""
    _check_capacity(m, n, max_capacity, feasible)
    while True:
        classes = [rng.randint(1, 2) for _ in range(n)]
        s2_releases = iter(sorted(rng.randint(1, m)
                                  for _ in range(classes.count(2))))
        releases = [1 if cls == 1 else next(s2_releases) for cls in classes]
        inst = _window_instance(rng, releases, [m] * n, m, max_cost,
                                max_demand, max_open_cost, max_capacity,
                                feasible)
        if inst is not None:
            s1 = tuple(j + 1 for j, cls in enumerate(classes) if cls == 1)
            s2 = tuple(j + 1 for j, cls in enumerate(classes) if cls == 2)
            return inst, s1, s2
