"""Greedy primitives shared by the solvers.

The Monge property lets every dynamic program assign demand greedily.
``greedy_serve`` walks clients left to right from a given unit; the
exact DP's extraction uses it.  ``ServeCurve`` is the one ``Fraction``
right-to-left serve walk: an open facility serves the demand later
facilities left, from the last client backward, until its money or its
capacity runs out or it reaches an infinite cost.  Its callers are
``serve_schedule`` and ``demand_met`` (the FPTAS bound search and
extraction) and the two-class frontier and extraction in
``extensions``.  The FPTAS table fill walks the same curve in scaled
integers, inline, as its hot loop.

Everything here is a pure function over an immutable Instance; amounts
are exact rationals throughout.
"""

from __future__ import annotations

from bisect import bisect_right
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


@dataclass(frozen=True)
class GreedyServeResult:
    next_client: int        # first client with demand left, n+1 if none
    demand_remaining: int   # units still unserved at next_client
    transport_cost: Cost


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


class ServeCurve:
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


def _money_after_opening(inst: Instance, i: int, d_met: Amount,
                         budget: Amount) -> Amount:
    """Budget left once facility i is open; negative if it cannot open."""
    if d_met < 0 or budget < 0:
        raise ValueError("d_met and budget must be nonnegative")
    if d_met > inst.total_demand:
        raise ValueError("d_met must not exceed the total demand")
    return budget - inst.facilities[i - 1].open_cost


def serve_schedule(inst: Instance, i: int, d_met: Amount,
                   budget: Amount) -> Tuple[Amount, List[Tuple[int, Amount]]]:
    """Open facility i and serve residual demand right-to-left on a budget.

    Returns (total served, [(client, amount)] in serving order).  Serves
    nothing if the budget cannot cover the opening cost.  Serving stops
    at the first client it cannot serve fully (budget or capacity bound)
    or whose cost from i is infinite; fractional amounts are exact
    rationals.
    """
    money = _money_after_opening(inst, i, d_met, budget)
    if money < 0:
        return Fraction(0), []
    served = ServeCurve(inst, i, range(1, inst.n + 1), d_met).schedule(
        money, inst.facilities[i - 1].capacity)
    return sum((amount for _, amount in served), Fraction(0)), served


def demand_met(inst: Instance, i: int, d_met: Amount, budget: Amount) -> Amount:
    """Demand facility i can meet with the given budget, after d_met was
    already met right-to-left by later facilities.  Never exceeds U_i."""
    money = _money_after_opening(inst, i, d_met, budget)
    if money < 0:
        return Fraction(0)
    return min(inst.facilities[i - 1].capacity,
               ServeCurve(inst, i, range(1, inst.n + 1), d_met).served(money))
