"""Greedy primitives shared by the solvers.

The Monge property lets every dynamic program assign demand greedily.
``greedy_serve`` walks clients left to right from a given unit; the
exact DP's extraction uses it.  ``ServeCurve`` is the one right-to-left
serve walk, in integers scaled by a caller-given factor: an open
facility serves the demand later facilities left, from the last client
backward, until its money or its capacity runs out or it reaches an
infinite cost.  Its callers are ``serve_schedule`` and ``demand_met``
(the FPTAS bound search and extraction), the FPTAS table fill, which
records one line per breakpoint pair, and the two-class frontier
and extraction in ``extensions``.

Everything here is a pure function over an immutable Instance.  Amounts
are exact: scaled integers inside the walk, and ``Fraction`` at the
boundary of ``serve_schedule``, ``demand_met`` and
``ServeCurve.schedule``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from .model import INF, Cost, Instance, is_inf

Amount = Union[int, Fraction]
T = TypeVar("T")

#: The share of a fully served client.  Solutions hold this one object
#: instead of a fresh Fraction(1) per entry.
FULL = Fraction(1)


@lru_cache(maxsize=1 << 14, typed=True)
def shared(value: T) -> T:
    """``value``, or an equal immutable value passed in before.

    Solutions pass their (facility, client) entry keys, open sets,
    costs and fractional shares, and reductions their cost rows,
    facilities and clients through here, so results built from the
    same data share these objects instead of holding copies.  Keys are
    typed, so an int and an equal ``Fraction`` stay apart.  Only for
    values whose equal copies are interchangeable (no mix of equal ints
    and floats inside a tuple).
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


def greedy_serve(inst: Instance, i: int, u: int, j: int, d: int) -> GreedyServeResult:
    """Serve u units from facility i, starting at client j with d units left.

    The units fill clients j, j + 1, ... in order.  Returns the first
    client left with unserved demand (n + 1 if none), how much of it is
    unserved, and the transport cost of the u units.  The cost is INF if
    any positively served client has infinite cost from i.
    """
    if not (1 <= i <= inst.m and 1 <= j <= inst.n):
        raise ValueError("facility or client index out of range")
    if not (0 <= d <= inst.demand(j)):
        raise ValueError("d must be between 0 and the demand of client j")
    if u < 0:
        raise ValueError("u must be nonnegative")
    cost: Cost = 0
    for k in range(j, inst.n + 1):
        left = d if k == j else inst.demand(k)
        take = min(u, left)
        if take > 0:  # INF * 0 would be nan
            cost += inst.cost(i, k) * take
        u -= take
        if take < left:
            return GreedyServeResult(k, left - take, cost)
    if u:
        raise ValueError("u exceeds the remaining demand")
    return GreedyServeResult(inst.n + 1, 0, cost)


@lru_cache(maxsize=1 << 10)
def cost_lcm(row: Tuple[Cost, ...]) -> int:
    """lcm of the finite costs above 1 in a cost row."""
    return math.lcm(*(c for c in row if not is_inf(c) and c > 1))


class ServeCurve:
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


def _open_curve(inst: Instance, i: int, d_met: Amount, budget: Amount,
                ) -> Optional[Tuple[ServeCurve, int]]:
    """Facility i's curve over all clients and the money it has left
    once open (scaled by the curve's scale); None if it cannot open."""
    if d_met < 0 or budget < 0:
        raise ValueError("d_met and budget must be nonnegative")
    if d_met > inst.total_demand:
        raise ValueError("d_met must not exceed the total demand")
    money = budget - inst.facilities[i - 1].open_cost
    if money < 0:
        return None
    scale = math.lcm(d_met.denominator, money.denominator)
    curve = ServeCurve(inst, i, range(1, inst.n + 1),
                       d_met.numerator * (scale // d_met.denominator), scale,
                       cost_lcm(inst.costs[i - 1]))
    return curve, money.numerator * (scale // money.denominator)


def serve_schedule(inst: Instance, i: int, d_met: Amount, budget: Amount,
                   ) -> Tuple[Fraction, List[Tuple[int, Fraction]]]:
    """Open facility i and serve residual demand right-to-left on a budget.

    Returns (total served, [(client, amount)] in serving order).  Serves
    nothing if the budget cannot cover the opening cost.  Serving stops
    at the first client it cannot serve fully (budget or capacity bound)
    or whose cost from i is infinite; fractional amounts are exact
    rationals.
    """
    walk = _open_curve(inst, i, d_met, budget)
    if walk is None:
        return Fraction(0), []
    curve, money = walk
    served = curve.served(money)
    return Fraction(served, curve.unit), curve.schedule(served)


def demand_met(inst: Instance, i: int, d_met: Amount, budget: Amount,
               ) -> Fraction:
    """Demand facility i can meet with the given budget, after d_met was
    already met right-to-left by later facilities.  Never exceeds U_i."""
    walk = _open_curve(inst, i, d_met, budget)
    if walk is None:
        return Fraction(0)
    curve, money = walk
    return Fraction(curve.served(money), curve.unit)
