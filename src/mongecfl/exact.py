"""Exact dynamic program for polynomially bounded total demand.

State (i, S): cheapest way to serve all demand after the first S units,
using only facilities i and higher.  Units are numbered in client order,
so S maps one-to-one onto the classic state (j, d), d units left at
client j plus all demand of clients after j.  For each facility we either
leave it closed or pick how many units u it serves; the Monge property
guarantees those are the next u units in client order, so a choice moves
the state from S to S + u.

Levels are filled bottom-up, i = m down to 1, keeping two value rows and
one compact choice row per level.  With P the prefix sums of the unit
costs from i, serving u units from state S costs open + P[S+u] - P[S] +
next[S+u], so the best u is the leftmost minimum of P[x] + next[x] over
the window S < x <= min(S + capacity, first unit at or after S whose
cost from i is infinite).  Both ends of the window only move right as S
grows, so a monotone deque (Wagelmans, van Hoesel & Kolen 1992) gives a
whole level in O(T).  Ties keep the facility closed; otherwise the
smallest u with a strictly lower cost wins.  Level i only covers
T - (U_i + ... + U_m) <= S <= U_1 + ... + U_{i-1} (T the total demand,
U the capacities): below that range the value is infinite, and the
optimal path from S = 0 never goes above it.  O(m T) time, O(T) per
choice row, and no recursion, so m is not bounded by Python's recursion
limit.  Extraction replays the choices from S = 0: facility i serves
the unit range [S, S + u) of its choice u, which ``greedy_serve`` splits
into runs of one client each.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, groupby
from typing import Dict, FrozenSet, Iterable, List, Tuple, Union

from .kernel import FULL, Amount, Flow, shared
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

    open: FrozenSet[int]
    assignment: Flow
    total_cost: Union[Amount, float]

    @classmethod
    def from_served(cls, inst: Instance,
                    served: Iterable[Tuple[int, int, Amount]]) -> "Solution":
        """The solution in which facility i serves ``units`` of client j,
        for each (i, j, units).

        Zero amounts are dropped, and exactly the facilities that serve
        are open.  Each (i, j) appears at most once and has a finite
        cost.  Integer amounts and costs give an integer total cost.
        """
        entries: Dict[Tuple[int, int], Amount] = {}
        transport: Amount = 0
        for i, j, units in served:
            if units == 0:
                continue
            demand = inst.demand(j)
            entries[shared((i, j))] = (FULL if units == demand
                                       else shared(Fraction(units, demand)))
            transport += inst.cost(i, j) * units
        opened = shared(frozenset(i for i, _ in entries))
        opening = sum(inst.facilities[i - 1].open_cost for i in opened)
        return cls(opened, Flow(entries, shared(transport)),
                   shared(opening + transport))


def greedy_serve(unit_client: List[int], start: int,
                 u: int) -> List[Tuple[int, int]]:
    """(client, units) for the units start..start + u - 1 in serving
    order, one pair per run of equal clients, clients 1-based: what a
    facility that serves those units serves of each client."""
    return [(k + 1, sum(1 for _ in run))
            for k, run in groupby(unit_client[start:start + u])]


class ExactSolver:
    """Bottom-up evaluation of the (i, S) recurrence.

    Each call to ``solve`` runs its own sweep; ``states`` counts the
    (i, S) states of the last one and ``u_steps`` the finite-cost serves
    the recurrence ranges over in them.
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

    def _level(self, i: int, nxt: List[Cost]) -> Tuple[List[Cost], array]:
        """Row i from row i + 1 over level i's range of S (INF
        elsewhere), and the chosen u per S in that range (0: facility i
        stays closed)."""
        total = self.total
        lo, hi = self._low[i], self._reach[i]
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
        # prefix[x]: cost of units 0..x-1 with INF counted as 0; no window
        # below crosses an INF unit, so its differences are exact there
        prefix = [0, *accumulate(0 if c == INF else c for c in unit_cost)]
        keys = [p + v for p, v in zip(prefix, nxt)]
        row: List[Cost] = [INF] * (total + 1)
        choice = array("q", bytes(8 * max(0, hi - lo + 1)))
        open_cost, cap = f.open_cost, f.capacity
        # serving u = x - S units costs open_cost + keys[x] - prefix[S], for
        # x in the window (S, stop]; both ends only move right, so the
        # deque holds the window's x in order with nondecreasing keys (a
        # new x pops only strictly larger ones), and its front is the
        # leftmost minimum, the smallest best u
        window: deque = deque()
        pushed = lo
        steps = 0
        for S in range(lo, hi + 1):
            stop = min(S + cap, finite_end[S])
            while pushed < stop:
                pushed += 1
                key = keys[pushed]
                while window and keys[window[-1]] > key:
                    window.pop()
                window.append(pushed)
            while window and window[0] <= S:
                window.popleft()
            best = nxt[S]
            best_u = 0
            if window:
                cand = open_cost + keys[window[0]] - prefix[S]
                if cand < best:
                    best = cand
                    best_u = window[0] - S
            steps += stop - S
            row[S] = best
            choice[S - lo] = best_u
        self.states += max(0, hi - lo + 1)
        self.u_steps += steps
        return row, choice

    def solve(self) -> Solution:
        inst = self.inst
        self.states = self.u_steps = 0
        # row m + 1: nothing left to serve costs 0, anything else INF
        row: List[Cost] = [INF] * self.total + [0]
        choices: List[array] = [array("q")] * (inst.m + 1)
        for i in range(inst.m, 0, -1):
            row, choices[i] = self._level(i, row)
        cost = row[0]
        if is_inf(cost):
            return Solution(frozenset(), Flow({}, INF), INF)

        schedule: List[Tuple[int, int, int]] = []
        served = 0
        for i in range(1, inst.m + 1):
            u = choices[i][served - self._low[i]]
            if u:
                schedule.extend((i, j, units) for j, units in
                                greedy_serve(self._unit_client, served, u))
                served += u
        return Solution.from_served(inst, schedule)


def solve_exact(inst: Instance, demand_cap: int = DEFAULT_DEMAND_CAP) -> Solution:
    """Optimal solution via the exact DP; INF cost if infeasible."""
    return ExactSolver(inst, demand_cap).solve()
