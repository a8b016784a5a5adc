"""Greedy primitives shared by the solvers.

The Monge property lets every dynamic program assign demand greedily.
The one right-to-left serve walk is ``ServeFamily``: an open facility
serves the demand later facilities left, from the last client backward,
until its money or its capacity runs out or it reaches an infinite
cost.  For facility i and one client class, every such walk, whatever
the met demand M and the scale it is counted in, reads the same suffix
sums over the clients taken from the right (demand before each
position, money before it, the cost there and the next infinite cost).
M only picks where the walk starts, and the capacity and the next
infinite cost where it stops.  The family is read two ways:

* ``ServeCurve`` cuts one walk out of it by bisection, for one M, as
  Python ints: the one scalar reading.  Its callers are the FPTAS bound
  search step ``fptas.demand_met`` and ``serve_schedule`` (the FPTAS
  extraction), which read the families of the last instance through
  ``serve_family``, and the two-class extraction in ``extensions``.
* ``ServeFamily.sweep`` walks every M of a numpy vector at once, as
  starts x positions arrays of served demand and spent money, the
  walks' breakpoints.  The FPTAS table fill reads the run starts of a
  level from it, a block at a time; the two-class frontier sweeps a
  level's entries once per class, and ``ServeFamily.served`` reads the
  sweep at every grid spend of every entry.

The results here depend only on their arguments, never on what the
``_families`` cache holds; an Instance is immutable.  Amounts are
exact: scaled integers inside the walk, and ``Fraction`` at the
boundary of ``serve_schedule`` and ``ServeCurve.schedule``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

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


@lru_cache(maxsize=1 << 10)
def cost_lcm(row: Tuple[Cost, ...]) -> int:
    """lcm of the finite costs above 1 in a cost row."""
    return math.lcm(*(c for c in row if not is_inf(c) and c > 1))


class ServeFamily:
    """Every right-to-left serve of one client class by facility i: the
    suffix sums each of its curves is a cut of.

    Positions take the class's clients from the right, with clients of
    demand 0 dropped (a walk skips them before it reads their cost).
    ``clients[p]`` is (client, cost) at position p, ``before[p]`` the
    demand of the positions before p, ``money[p]`` their money (demand
    times cost, an infinite cost counted 0), and ``next_inf[p]`` the
    first position at or after p with an infinite cost (the number of
    positions if none); ``ratios[p]`` is lcm // c at p, 0 for a zero or
    infinite cost.  A walk after met demand M starts at the first
    position p with before[p + 1] > M, and stops at the first infinite
    cost, or after the position where the served demand reaches the
    capacity, which that position gets only part of.

    The sums are unscaled; a cut or a sweep reads them at a scale S,
    with met demand and money as integers over S and amounts over
    S * ``lcm``.  ``lcm`` is a multiple of every finite positive cost of
    facility i, so a partial serve x * lcm / c is a whole number.
    """

    __slots__ = ("clients", "costs", "ratios", "before", "money",
                 "next_inf", "capacity", "lcm")

    def __init__(self, inst: Instance, i: int, members: Sequence[int]):
        row = inst.costs[i - 1]
        demands = inst.clients
        self.lcm = cost_lcm(row)
        self.capacity = inst.facilities[i - 1].capacity
        self.clients = clients = []
        self.before = before = [0]
        self.money = money = [0]
        e = q = 0
        for j in reversed(members):
            d = demands[j - 1].demand
            if d > 0:
                c = row[j - 1]
                e += d
                if c != INF:
                    q += c * d
                clients.append((j, c))
                before.append(e)
                money.append(q)
        self.costs = costs = [c for _, c in clients]
        # lcm // c, exact: every finite cost above 1 divides lcm
        self.ratios = [0 if c == INF or c == 0 else self.lcm // c
                       for c in costs]
        self.next_inf = next_inf = [len(clients)] * (len(clients) + 1)
        if INF in costs:
            for p in range(len(clients) - 1, -1, -1):
                next_inf[p] = p if costs[p] == INF else next_inf[p + 1]

    def sweep(self, met: np.ndarray, scale: int, dtype: object,
              ) -> Tuple[np.ndarray, np.ndarray]:
        """Every curve for the met demands ``met`` (over ``scale``) at
        once, as (served, spent): per met demand (row) and
        k = 0..positions (column), the demand served and the money spent
        once the walk has passed the first k positions, both over
        ``scale``.

        ``dtype`` (int64 or object) must hold ``before[-1] * scale`` and
        ``money[-1] * scale``, which bound every value formed.
        """
        before = np.array(self.before, dtype=dtype) * scale
        cost = np.array([0 if c == INF else c for c in self.costs],
                        dtype=dtype)
        # the demand left at each position once M is taken from the right
        residual = before[1:] - met[:, None]
        np.maximum(residual, 0, out=residual)
        np.minimum(residual, before[1:] - before[:-1], out=residual)
        if self.next_inf[0] < len(cost):
            # nothing from the first infinite cost the walk reaches on
            stop = np.array(self.next_inf)[
                np.searchsorted(before[1:], met, "right")]
            residual[np.arange(len(cost)) >= stop[:, None]] = 0
        served = np.zeros((len(met), len(cost) + 1), dtype=dtype)
        np.cumsum(residual, axis=1, out=served[:, 1:])
        np.minimum(served, min(self.capacity, self.before[-1]) * scale,
                   out=served)
        spent = np.zeros_like(served)
        np.cumsum((served[:, 1:] - served[:, :-1]) * cost, axis=1,
                  out=spent[:, 1:])
        return served, spent

    def served(self, walks: Tuple[np.ndarray, np.ndarray],
               which: np.ndarray, money: np.ndarray) -> np.ndarray:
        """f(money[k]) of the walk ``which[k]`` of ``walks``, a ``sweep``
        at scale S, for every k, over S * ``lcm``: what
        ``ServeCurve.served`` gives for that met demand, as one array.

        ``money`` is over S, in the sweep's dtype, which must also hold
        (before[-1] * S + max(``money``)) * ``lcm``, a bound on every
        value formed.
        """
        served, spent = walks
        # k is the last breakpoint at or below the money, so the money
        # runs out in position k; past the last position f is flat
        k = np.count_nonzero(spent[which, 1:] <= money[:, None], axis=1)
        ratios = np.array([*self.ratios, 0], dtype=spent.dtype)
        return (served[which, k] * self.lcm
                + (money - spent[which, k]) * ratios[k])


class ServeCurve:
    """One curve of a ``ServeFamily``: the right-to-left serve after
    ``d_met`` (over ``scale``) was met by later facilities, up to the
    capacity.

    Spending money x (over ``scale``) on the residual clients, from the
    right, serves f(x); ``amount[k]`` (over ``unit = scale * lcm``) is
    the amount once the first k of ``clients`` (client, cost) are
    served.  The last client served before the capacity binds gets only
    what the capacity leaves, so ``amount[-1]`` never exceeds the
    capacity.  f is constant from ``saturation`` on, at ``ceiling`` =
    ``amount[-1]``.

    The cut is two bisections of the family's ``before``, for its first
    and its end position; ``served`` bisects the family's money between
    them, and the two lists are built only when read.
    """

    __slots__ = ("family", "d_met", "scale", "first", "stop", "base",
                 "saturation", "ceiling", "lcm", "unit")

    def __init__(self, family: ServeFamily, d_met: int, scale: int):
        self.family = family
        self.d_met = d_met
        self.scale = scale
        self.lcm = lcm = family.lcm
        self.unit = scale * lcm
        before = family.before
        self.first = first = bisect_right(before, d_met // scale, 1) - 1
        # the first position whose end the capacity reaches
        stop = bisect_left(before, family.capacity - (-d_met // scale),
                           first + 1)
        self.stop = stop = min(stop, family.next_inf[first])
        if first == stop:
            self.base = self.saturation = self.ceiling = 0
            return
        costs = family.costs
        # the money the met demand took, as the family counts it
        self.base = base = (family.money[first] * scale
                            + (d_met - before[first] * scale) * costs[first])
        saturation = family.money[stop] * scale - base
        amount = before[stop] * scale - d_met
        room = family.capacity * scale
        if amount > room:  # the capacity binds inside the last position
            saturation -= (amount - room) * costs[stop - 1]
            amount = room
        self.saturation = saturation
        self.ceiling = amount * lcm

    @property
    def clients(self) -> List[Tuple[int, Cost]]:
        return self.family.clients[self.first:self.stop]

    @property
    def amount(self) -> List[int]:
        if self.first == self.stop:
            return [0]
        return [0, *[(e * self.scale - self.d_met) * self.lcm for e in
                     self.family.before[self.first + 1:self.stop]],
                self.ceiling]

    def served(self, money: int) -> int:
        """f(money), scaled by ``unit``, for ``money`` scaled by
        ``scale``."""
        if money >= self.saturation:
            return self.ceiling
        family, scale = self.family, self.scale
        spent = money + self.base  # as the family counts it, over scale
        p = bisect_right(family.money, spent // scale, self.first + 1,
                         self.stop) - 1
        # a zero-cost position p would leave the family's money at p + 1
        # no larger, so its cost is > 0; at p = first, the first term
        # is the met part of that position, <= 0, and base cancels it
        return ((family.before[p] * scale - self.d_met) * self.lcm
                + (spent - family.money[p] * scale) * family.ratios[p])

    def schedule(self, amount: int) -> List[Tuple[int, Fraction]]:
        """(client, amount) in serving order that makes up ``amount``
        (scaled by ``unit``, at most ``served`` of some money); amounts
        are unscaled."""
        out: List[Tuple[int, Fraction]] = []
        amounts = self.amount
        for (j, _), start, end in zip(self.clients, amounts, amounts[1:]):
            if amount <= start:
                break
            out.append((j, Fraction(min(end, amount) - start, self.unit)))
        return out


# The families of the last instance asked for, by facility: the bound
# search, the fill and the extraction ask for the same few, many times.
_families: Tuple[Optional[Instance], Dict[int, ServeFamily]] = (None, {})


def serve_family(inst: Instance, i: int) -> ServeFamily:
    """Facility i's family over all clients, kept for the last instance."""
    global _families
    cached = _families
    if cached[0] is not inst:
        _families = cached = (inst, {})
    family = cached[1].get(i)
    if family is None:
        family = cached[1][i] = ServeFamily(inst, i, range(1, inst.n + 1))
    return family


def serve_schedule(inst: Instance, i: int, d_met: Amount, budget: Amount,
                   ) -> Tuple[Fraction, List[Tuple[int, Fraction]]]:
    """Open facility i and serve residual demand right-to-left on a budget.

    Returns (total served, [(client, amount)] in serving order).  Serves
    nothing if the budget cannot cover the opening cost.  Serving stops
    at the first client it cannot serve fully (budget or capacity bound)
    or whose cost from i is infinite; fractional amounts are exact
    rationals.
    """
    if d_met < 0 or budget < 0:
        raise ValueError("d_met and budget must be nonnegative")
    if d_met > inst.total_demand:
        raise ValueError("d_met must not exceed the total demand")
    money = budget - inst.facilities[i - 1].open_cost
    if money < 0:
        return Fraction(0), []
    scale = math.lcm(d_met.denominator, money.denominator)
    curve = ServeCurve(serve_family(inst, i),
                       d_met.numerator * (scale // d_met.denominator), scale)
    served = curve.served(money.numerator * (scale // money.denominator))
    return Fraction(served, curve.unit), curve.schedule(served)
