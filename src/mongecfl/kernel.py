"""Greedy primitives shared by the exact DP and the budget-grid DP.

The Monge property lets both dynamic programs assign demand greedily:
the transport kernel walks facilities and clients in increasing index
order, and the value-function helpers serve remaining demand from the
last client backward.  Everything here is a pure function over an
immutable Instance; demand amounts are exact rationals throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple, TypeVar, Union

from .model import INF, Cost, Instance, is_inf

Amount = Union[int, Fraction]
T = TypeVar("T")

#: The share of a fully served client.  Solutions hold this one object
#: instead of a fresh Fraction(1) per entry.
FULL = Fraction(1)


@lru_cache(maxsize=1 << 14)
def shared(value: T) -> T:
    """``value``, or an equal immutable value passed in before.

    Solutions pass their (facility, client) entry keys and reductions
    their cost rows, facilities and clients through here, so results
    built from the same data share these objects instead of holding
    copies.  Only for values whose equal copies are interchangeable
    (no mix of equal ints and floats).
    """
    return value


@dataclass(frozen=True, slots=True)
class Flow:
    """A transport plan: (facility, client) -> amount, plus its cost."""

    entries: Dict[Tuple[int, int], Amount]
    cost: Union[Amount, float]  # rational, or INF if an inf edge carries flow

    def recompute_cost(self, costs: Sequence[Sequence[Cost]]):
        total: Amount = 0
        for (i, j), x in self.entries.items():
            if x == 0:
                continue
            c = costs[i - 1][j - 1]
            if is_inf(c):
                return INF
            total += c * x
        return total


@dataclass(frozen=True)
class GreedyServeResult:
    next_client: int        # first client with demand left, n+1 if none
    demand_remaining: int   # units still unserved at next_client
    transport_cost: Cost


def greedy_transport(supplies: Sequence[int], demands: Sequence[int],
                     costs: Sequence[Sequence[Cost]]) -> Flow:
    """Solve a balanced transportation problem with Monge costs.

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


def _remaining_after(inst: Instance, j: int, d: int) -> int:
    """d units at client j plus full demand of clients j+1..n."""
    return d + sum(inst.demand(k) for k in range(j + 1, inst.n + 1))


def greedy_serve(inst: Instance, i: int, u: int, j: int, d: int) -> GreedyServeResult:
    """Serve u units from facility i, starting at client j with d units left.

    Returns the first client with unserved demand, how much of it is
    unserved, and the transport cost of the u units.  The cost is INF if
    any positively served client has infinite cost from i.
    """
    if not (1 <= i <= inst.m and 1 <= j <= inst.n):
        raise ValueError("facility or client index out of range")
    if not (0 <= d <= inst.demand(j)):
        raise ValueError("d must be between 0 and the demand of client j")
    if not (0 <= u <= _remaining_after(inst, j, d)):
        raise ValueError("u exceeds the remaining demand")

    # Locate the first client ell with d + sum_{k=j+1}^{ell} d_k > u;
    # ell lands on n+1 exactly when u equals all remaining demand.
    cum = d
    ell = j
    while ell <= inst.n and cum <= u:
        ell += 1
        if ell <= inst.n:
            cum += inst.demand(ell)

    cost: Cost = 0

    def add(c: Cost, amount: int) -> Cost:
        if amount == 0:
            return cost
        return INF if (is_inf(c) or is_inf(cost)) else cost + c * amount

    if ell == inst.n + 1:
        remaining = 0
        cost = add(inst.cost(i, j), d)
        for k in range(j + 1, inst.n + 1):
            cost = add(inst.cost(i, k), inst.demand(k))
    elif ell == j:
        remaining = d - u
        cost = add(inst.cost(i, j), d - remaining)
    else:
        served_before_ell = d + sum(inst.demand(k) for k in range(j + 1, ell))
        remaining = inst.demand(ell) - (u - served_before_ell)
        cost = add(inst.cost(i, j), d)
        for k in range(j + 1, ell):
            cost = add(inst.cost(i, k), inst.demand(k))
        cost = add(inst.cost(i, ell), inst.demand(ell) - remaining)
    return GreedyServeResult(ell, remaining, cost)


def residual_profile(inst: Instance, d_total: Amount) -> List[Amount]:
    """Per-client demand left after d_total units were met right-to-left.

    Clients n, n-1, ... are stripped until d_total is exhausted; at most
    one client ends up partially served.
    """
    if d_total < 0 or d_total > inst.total_demand:
        raise ValueError("d_total must be between 0 and the total demand")
    residual: List[Amount] = [inst.demand(j) for j in range(1, inst.n + 1)]
    left = d_total
    for idx in range(inst.n - 1, -1, -1):
        if left <= 0:
            break
        take = min(residual[idx], left)
        residual[idx] -= take
        left -= take
    return residual


def serve_schedule(inst: Instance, i: int, d_met: Amount,
                   budget: Amount) -> Tuple[Amount, List[Tuple[int, Amount]]]:
    """Open facility i and serve residual demand right-to-left on a budget.

    Returns (total served, [(client, amount)] in serving order).  Serves
    nothing if the budget cannot cover the opening cost.  Serving stops
    at the first client it cannot serve fully (budget or capacity bound)
    or whose cost from i is infinite; fractional amounts are exact
    rationals.
    """
    if d_met < 0 or budget < 0:
        raise ValueError("d_met and budget must be nonnegative")
    f = inst.facilities[i - 1]
    if budget < f.open_cost:
        return Fraction(0), []
    money = Fraction(budget - f.open_cost)
    cap: Amount = f.capacity
    residual = residual_profile(inst, d_met)
    served: List[Tuple[int, Amount]] = []
    total = Fraction(0)
    for idx in range(inst.n - 1, -1, -1):
        r = residual[idx]
        if r == 0:
            continue
        if cap <= 0:
            break
        c = inst.cost(i, idx + 1)
        if is_inf(c):
            break
        amount = min(r, cap)
        if c > 0:
            amount = min(amount, money / c)
        if amount > 0:
            served.append((idx + 1, Fraction(amount)))
            total += amount
            cap -= amount
            money -= c * amount
        if amount < r:  # blocked mid-client: right-to-left serving may not skip
            break
    return total, served


def demand_met(inst: Instance, i: int, d_met: Amount, budget: Amount) -> Amount:
    """Demand facility i can meet with the given budget, after d_met was
    already met right-to-left by later facilities.  Never exceeds U_i."""
    total, _ = serve_schedule(inst, i, d_met, budget)
    return total
