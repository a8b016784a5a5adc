"""Exact dynamic program for polynomially bounded total demand.

State (i, S): cheapest way to serve all demand after the first S units,
using only facilities i and higher.  Units are numbered in client order,
so S maps one-to-one onto the classic state (j, d), d units left at
client j plus all demand of clients after j.  For each facility we either
leave it closed or pick how many units u it serves; the Monge property
guarantees those are the next u units in client order, so a choice moves
the state from S to S + u.

Levels are filled bottom-up, i = m down to 1, keeping two value rows and
one compact choice row per level.  For each (i, S) the sweep takes
u = 1, 2, ... one unit at a time and carries the transport cost, so each
u costs O(1); it stops at the capacity, at the last unit, or before the
first unit whose cost from i is infinite.  Ties keep the facility
closed; otherwise the smallest u with a strictly lower cost wins.  Level
i only covers T - (U_i + ... + U_m) <= S <= U_1 + ... + U_{i-1} (T the
total demand, U the capacities): below that range the value is infinite,
and the optimal path from S = 0 never goes above it.  O(m T U_max) time,
O(T) per choice row, and no recursion, so m is not bounded by Python's
recursion limit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Dict, List, Set, Tuple, Union

from .kernel import FULL, Amount, Flow, greedy_serve, shared
from .model import INF, Cost, Instance, is_inf

DEFAULT_DEMAND_CAP = 10**6


class DemandCapExceeded(ValueError):
    """Total demand too large for the exact DP; use the FPTAS instead."""


@dataclass(frozen=True, slots=True)
class Solution:
    """Open facilities plus a fractional assignment.

    assignment.entries maps (facility, client) to the fraction of the
    client's demand served there (exact rationals in [0, 1]);
    assignment.cost is the transport cost alone.
    """

    open: Set[int]
    assignment: Flow
    total_cost: Union[Amount, float]

    def recompute_cost(self, inst: Instance) -> Union[Amount, float]:
        total: Union[Amount, float] = sum(
            inst.facilities[i - 1].open_cost for i in self.open)
        for (i, j), x in self.assignment.entries.items():
            if x == 0:
                continue
            c = inst.cost(i, j)
            if is_inf(c):
                return INF
            total += c * inst.demand(j) * x
        return total


class ExactSolver:
    """Bottom-up evaluation of the (i, S) recurrence.

    Each call to ``solve`` or ``value`` runs its own sweep; ``states`` and
    ``u_steps`` count the (i, S) states and the u values (finite-cost
    serves) that the last one swept.
    """

    def __init__(self, inst: Instance, demand_cap: int = DEFAULT_DEMAND_CAP):
        if inst.total_demand > demand_cap:
            raise DemandCapExceeded(
                f"total demand {inst.total_demand} exceeds cap {demand_cap}; "
                "use the FPTAS for large demands")
        self.inst = inst
        self.total = total = inst.total_demand
        # 0-based client of each unit, in serving order
        self._unit_client = [k for k, c in enumerate(inst.clients)
                             for _ in range(c.demand)]
        # level i covers low[i] <= S <= reach[i], from the capacity of
        # facilities 1..i-1 (index i holds U_1 + ... + U_{i-1})
        before = [0, 0, *accumulate(f.capacity for f in inst.facilities)]
        spare = before[-1] - total
        self._low = [max(0, b - spare) for b in before]
        self._reach = [min(total, b) for b in before]
        self.states = 0
        self.u_steps = 0

    def _level(self, i: int, nxt: List[Cost], lo: int,
               hi: int) -> Tuple[List[Cost], array]:
        """Row i from row i + 1 over lo <= S <= hi (INF elsewhere), and
        the chosen u per S in that range (0: facility i stays closed)."""
        total = self.total
        f = self.inst.facilities[i - 1]
        costs = self.inst.costs[i - 1]
        unit_cost = [costs[k] for k in self._unit_client]
        # finite_end[S]: first unit at or after S with infinite cost from i
        finite_end = [total] * (total + 1)
        end = total
        for t in range(total - 1, lo - 1, -1):
            if unit_cost[t] == INF:
                end = t
            finite_end[t] = end
        row: List[Cost] = [INF] * (total + 1)
        choice = array("q", bytes(8 * max(0, hi - lo + 1)))
        open_cost, cap = f.open_cost, f.capacity
        steps = 0
        for S in range(lo, hi + 1):
            best = nxt[S]
            best_u = 0
            stop = min(S + cap, finite_end[S])
            cost = open_cost
            for t in range(S, stop):
                cost += unit_cost[t]
                cand = cost + nxt[t + 1]
                if cand < best:
                    best = cand
                    best_u = t + 1 - S
            steps += stop - S
            row[S] = best
            choice[S - lo] = best_u
        self.states += max(0, hi - lo + 1)
        self.u_steps += steps
        return row, choice

    def _last_row(self) -> List[Cost]:
        """Row m + 1: nothing left to serve costs 0, anything else INF."""
        row: List[Cost] = [INF] * (self.total + 1)
        row[self.total] = 0
        return row

    def value(self, i: int, j: int, d: int) -> Cost:
        """Cheapest way to serve d units at client j plus all demand of
        clients after j with facilities i..m; INF if impossible."""
        inst = self.inst
        if j == inst.n + 1:
            return 0
        if not (1 <= i <= inst.m + 1 and 1 <= j <= inst.n):
            raise ValueError("facility or client index out of range")
        if not 0 <= d <= inst.demand(j):
            raise ValueError("d must be between 0 and the demand of client j")
        served = sum(inst.demand(k) for k in range(1, j + 1)) - d
        self.states = self.u_steps = 0
        row = self._last_row()
        for k in range(inst.m, i - 1, -1):
            row, _ = self._level(k, row, self._low[k], self.total)
        return row[served]

    def solve(self) -> Solution:
        inst = self.inst
        self.states = self.u_steps = 0
        row = self._last_row()
        choices: List[array] = [array("q")] * (inst.m + 1)
        for i in range(inst.m, 0, -1):
            row, choices[i] = self._level(i, row, self._low[i],
                                          self._reach[i])
        cost = row[0]
        if is_inf(cost):
            return Solution(set(), Flow({}, INF), INF)

        open_facilities: Set[int] = set()
        entries: Dict[Tuple[int, int], Amount] = {}
        i, j, d = 1, 1, inst.demand(1)
        served = 0
        while i <= inst.m and j <= inst.n:
            u = choices[i][served - self._low[i]]
            if u:
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
                        demand = inst.demand(k)
                        entries[shared((i, k))] = (FULL if amount == demand
                                                 else Fraction(amount, demand))
                j, d = ell, serve.demand_remaining
                served += u
            i += 1
        flow = Flow(entries, cost - sum(inst.facilities[i - 1].open_cost
                                        for i in open_facilities))
        return Solution(open_facilities, flow, cost)


def solve_exact(inst: Instance, demand_cap: int = DEFAULT_DEMAND_CAP) -> Solution:
    """Optimal solution via the exact DP; INF cost if infeasible."""
    return ExactSolver(inst, demand_cap).solve()
