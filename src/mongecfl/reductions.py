"""Reductions into facility-location form with Monge costs.

Lot-sizing orders become facilities and demand periods become clients,
both in time order; the cost of covering a demand at time t' from an
order at time t <= t' is the summed holding cost over [t, t'), and
infinite for t > t'.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Tuple

from .kernel import shared
from .model import INF, Client, Facility, Instance, require_int


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

    def __init__(self, horizon: int, orders, demands, holding):
        require_int("horizon", horizon)
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        orders = tuple((c, u) for c, u in orders)
        demands = tuple((t, item, a) for t, item, a in demands)
        holding = tuple(holding)
        require_int("order cost", *(c for c, _ in orders))
        require_int("order capacity", *(u for _, u in orders))
        require_int("demand period", *(t for t, _, _ in demands))
        require_int("demand item", *(item for _, item, _ in demands))
        require_int("demand amount", *(a for _, _, a in demands))
        require_int("holding cost", *holding)
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


def _build(ls: LotSizingInstance,
           client_periods: List[Tuple[int, int]]) -> Instance:
    # prefix[t-1] = holding cost over [1, t); a period-p demand costs
    # prefix[p-1] - prefix[t-1] from a period-t order, infinite if t > p
    prefix = [0, *accumulate(ls.holding)]
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
            costs.append(shared(tuple(
                prefix[p - 1] - prefix[t - 1] if t <= p else INF
                for p, _ in client_periods)))
    clients = [shared(Client(amount)) for _, amount in client_periods]
    return Instance(facilities, clients, costs)


def lot_sizing_to_cfl(ls: LotSizingInstance) -> Instance:
    """Single-item lot-sizing as Monge facility location.

    Periods with zero demand produce no client.
    """
    if len(ls.items) > 1:
        raise ValueError("single-item reduction requires a single item type")
    return multi_item_to_cfl(ls)


def multi_item_to_cfl(ls: LotSizingInstance) -> Instance:
    """Multi-item lot-sizing with one shared linear holding-cost vector.

    One client per (period, item) with positive demand, ordered by
    period (item order fixed within a period); all clients at a period
    share a cost column.
    """
    totals: dict = {}
    for t, item, amount in ls.demands:
        totals[(t, item)] = totals.get((t, item), 0) + amount
    client_periods = [(t, a) for (t, item), a in sorted(totals.items()) if a > 0]
    if not client_periods:
        raise ValueError("at least one positive demand required")
    return _build(ls, client_periods)
