"""Reductions into facility-location form with Monge costs.

Lot-sizing orders become facilities and demand periods become clients,
both in time order; the cost of covering a demand at time t' from an
order at time t <= t' is the summed holding cost over [t, t'), and
infinite for t > t'.  Single-demand instances embed as-is (one client
makes the Monge condition vacuous).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .kernel import shared
from .model import INF, Client, Cost, Facility, Instance


@dataclass(frozen=True)
class LotSizingInstance:
    """Capacitated lot-sizing over a horizon of T periods.

    orders[t-1] = (order cost, order capacity) for period t;
    holding[t-1] = per-unit holding cost over [t, t+1), length T-1.
    demands is a list of (period, item, amount); single-item instances
    use item 0 everywhere.
    """

    horizon: int
    orders: Tuple[Tuple[int, int], ...]
    demands: Tuple[Tuple[int, int, int], ...]
    holding: Tuple[int, ...]

    def __init__(self, horizon: int,
                 orders,
                 demands,
                 holding):
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        orders = tuple((int(c), int(u)) for c, u in orders)
        demands = tuple((int(t), int(item), int(a)) for t, item, a in demands)
        holding = tuple(int(h) for h in holding)
        if len(orders) != horizon:
            raise ValueError("one order slot per period required")
        if len(holding) != horizon - 1:
            raise ValueError("holding costs must cover T-1 period boundaries")
        if any(h < 0 for h in holding):
            raise ValueError("holding costs must be nonnegative")
        if any(c < 0 or u < 0 for c, u in orders):
            raise ValueError("order costs and capacities must be nonnegative")
        for t, _, a in demands:
            if not 1 <= t <= horizon:
                raise ValueError(f"demand period {t} outside horizon")
            if a < 0:
                raise ValueError("demand amounts must be nonnegative")
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "demands", demands)
        object.__setattr__(self, "holding", holding)

    @property
    def items(self) -> List[int]:
        return sorted({item for _, item, _ in self.demands})


def _holding_cost(ls: LotSizingInstance, t: int, t_prime: int) -> Cost:
    """Cost of covering a period-t' demand from a period-t order."""
    if t > t_prime:
        return INF
    return sum(ls.holding[k - 1] for k in range(t, t_prime))


def _build(ls: LotSizingInstance,
           client_periods: List[Tuple[int, int]]) -> Instance:
    # A zero-capacity order keeps its facility slot (one per period) but
    # gets an all-INF cost row, which forbids any use while preserving
    # the Monge property (both sides of every quadruple go infinite).
    facilities = []
    costs = []
    for t, (c_open, u) in enumerate(ls.orders, start=1):
        if u == 0:
            facilities.append(shared(Facility(c_open, 1)))
            costs.append(shared((INF,) * len(client_periods)))
        else:
            facilities.append(shared(Facility(c_open, u)))
            costs.append(shared(tuple(_holding_cost(ls, t, period)
                                      for period, _ in client_periods)))
    clients = [shared(Client(amount)) for _, amount in client_periods]
    return Instance(facilities, clients, costs)


def lot_sizing_to_cfl(ls: LotSizingInstance) -> Instance:
    """Single-item lot-sizing as Monge facility location.

    Periods with zero demand produce no client.
    """
    if len(ls.items) > 1:
        raise ValueError("single-item reduction requires a single item type")
    by_period: dict = {}
    for t, _, amount in ls.demands:
        by_period[t] = by_period.get(t, 0) + amount
    client_periods = [(t, a) for t, a in sorted(by_period.items()) if a > 0]
    if not client_periods:
        raise ValueError("at least one positive demand required")
    return _build(ls, client_periods)


def multi_item_to_cfl(ls: LotSizingInstance,
                      item_holding: Optional[dict] = None) -> Instance:
    """Multi-item lot-sizing with one shared linear holding-cost vector.

    One client per (period, item) with positive demand, ordered by
    period (item order fixed within a period); all clients at a period
    share a cost column.  ``item_holding`` may spell out a holding
    vector per item, but they must all agree with each other (and with
    the shared vector, which they override): the reduction only covers
    identical linear holding costs.
    """
    if item_holding:
        vectors = {item: tuple(int(h) for h in vec)
                   for item, vec in item_holding.items()}
        distinct = set(vectors.values())
        if len(distinct) > 1:
            raise ValueError("items with different holding-cost vectors "
                             "are outside the Monge reduction")
        ls = LotSizingInstance(ls.horizon, ls.orders, ls.demands,
                               distinct.pop())
    totals: dict = {}
    for t, item, amount in ls.demands:
        totals[(t, item)] = totals.get((t, item), 0) + amount
    client_periods = [(t, a) for (t, item), a in sorted(totals.items()) if a > 0]
    if not client_periods:
        raise ValueError("at least one positive demand required")
    return _build(ls, client_periods)


def single_demand_to_cfl(facilities: List[Facility], client: Client,
                         costs: List[Cost]) -> Instance:
    """One-client facility location; Monge holds vacuously."""
    if len(costs) != len(facilities):
        raise ValueError("one cost per facility required")
    return Instance(facilities, [client], [[c] for c in costs])
