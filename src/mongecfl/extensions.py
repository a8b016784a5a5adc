"""Release-date and deadline support.

With monotone release dates and deadlines the costs stay Monge and the
plain solvers apply; this module verifies that.  When only a split into
a release-free class and a monotone-release class is available, a
three-budget variant of the grid DP solves the instance: one budget for
opening costs and one transport budget per class, with each facility
serving the release-free class first.

The budget-vector recurrence is evaluated over the frontier of
non-dominated (budget vector, demand vector) pairs rather than a dense
grid-cubed table; the reachable values are identical and desk-scale
instances stay tractable.  Each facility level extends every frontier
entry by "closed" and by every grid spend pair (s1, s2), then prunes.

Serve curves.  For one frontier entry and one class, the demand the
facility serves right to left, before its capacity binds, is a
piecewise linear function f of the money spent, with one breakpoint
(money, amount) per residual client.  It is built once per (entry,
class); the facility then serves min(cap, f(s1)) of class 1 and
min(cap - t1, f(s2)) of class 2, so class 1 is evaluated once per s1
and class 2 once per s2.

Spend loops.  A spend past round_up(saturation money) serves nothing
more, so its candidate is strictly dominated by the one at that spend;
the same holds past the spend at which the capacity binds.  Candidates
whose budget sum exceeds the best cover found so far can neither be
chosen nor dominate a candidate that can.  None of these is generated,
and the pruned frontier is the same as with the full grid.

Integer-keyed prune.  A level's demands are scaled by L, the lcm of
their denominators, so every key is an exact integer.  Candidates are
stably sorted by (budget sum, b0, b1, b2, -d1, -d2) on int64 keys, or
on Python ints in an object array when a key does not fit; object keys
are then replaced row by row by their int64 ranks, which compare the
same way.  A candidate is kept iff no candidate before it dominates it.
That keeps the maxima of the vector set (Kung, Luccio & Preparata, JACM
1975) and, among equal vectors, the first generated.  Dominance is
tested block by block with numpy broadcasting, against the kept set
and within the block.

Lazy schedules.  Frontier entries record their spend vector but no
schedule; extraction rebuilds the schedules along the chain of the
best cover only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .exact import Solution
from .fptas import BudgetGrid, Rational, find_budget_bound
from .kernel import Amount, Flow
from .model import Infeasible, Instance, MongeWitness, check_monge_full, is_inf


@dataclass(frozen=True)
class WindowViolation:
    """An entry whose finiteness disagrees with the client's window."""

    i: int
    j: int
    reason: str


@dataclass(frozen=True)
class ClientPartition:
    """Clients split into a release-free class and a time-sensitive one.

    s1 holds clients with release date 1 (servable by every facility as
    far as releases go); s2 holds the rest, whose release dates must be
    nondecreasing in client index.
    """

    s1: Tuple[int, ...]
    s2: Tuple[int, ...]

    def __init__(self, s1, s2):
        object.__setattr__(self, "s1", tuple(s1))
        object.__setattr__(self, "s2", tuple(s2))

    def validate(self, inst: Instance) -> None:
        if sorted(self.s1 + self.s2) != list(range(1, inst.n + 1)):
            raise ValueError("partition must cover every client exactly once")
        if list(self.s1) != sorted(self.s1) or list(self.s2) != sorted(self.s2):
            raise ValueError("classes must list clients in increasing order")
        for j in self.s1:
            release = inst.clients[j - 1].release
            if release is not None and release != 1:
                raise ValueError(f"client {j} in the release-free class "
                                 f"has release date {release}")
        last = None
        for j in self.s2:
            release = inst.clients[j - 1].release or 1
            if last is not None and release < last:
                raise ValueError("release dates must be nondecreasing "
                                 "within the time-sensitive class")
            last = release


def check_windowed_monge(inst: Instance,
                         ) -> Optional[Union[MongeWitness, WindowViolation]]:
    """Verify Monge structure of a windowed instance; None means pass.

    Requires every client to carry monotone release dates and deadlines
    (otherwise the instance needs the two-class solver and a ValueError
    says so).  Checks that costs are infinite exactly outside the
    windows, then runs the full Monge check.  Under such windows no
    quadruple with an infinite entry can violate the inequality (its
    right-hand side is finite only if its left-hand side is), so the
    witness is the first all-finite violating quadruple.
    """
    releases = []
    deadlines = []
    for j, c in enumerate(inst.clients, start=1):
        if c.release is None or c.deadline is None:
            raise ValueError(f"client {j} lacks a release date or deadline")
        releases.append(c.release)
        deadlines.append(c.deadline)
    if releases != sorted(releases) or deadlines != sorted(deadlines):
        raise ValueError("release dates or deadlines are not nondecreasing; "
                         "use solve_two_class_fptas with a client partition")
    for i in range(1, inst.m + 1):
        for j in range(1, inst.n + 1):
            inside = releases[j - 1] <= i <= deadlines[j - 1]
            if inside and is_inf(inst.cost(i, j)):
                return WindowViolation(i, j, "infinite cost inside the window")
            if not inside and not is_inf(inst.cost(i, j)):
                return WindowViolation(i, j, "finite cost outside the window")
    return check_monge_full(inst.costs)


class _ServeCurve:
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


def _vector_serve(inst: Instance, partition: ClientPartition, i: int,
                  d_met: Tuple[Amount, Amount], money1: Amount,
                  money2: Amount,
                  ) -> Tuple[List[Tuple[int, Fraction]],
                             List[Tuple[int, Fraction]]]:
    """Schedules of an open facility i: class 1 first, then class 2 on
    the capacity class 1 leaves."""
    cap: Amount = inst.facilities[i - 1].capacity
    sched1 = _ServeCurve(inst, i, partition.s1, d_met[0]).schedule(money1, cap)
    cap -= sum(amount for _, amount in sched1)
    sched2 = _ServeCurve(inst, i, partition.s2, d_met[1]).schedule(money2, cap)
    return sched1, sched2


def vector_demand_met(inst: Instance, partition: ClientPartition, i: int,
                      d_met: Tuple[Amount, Amount],
                      remaining: Tuple[int, int, int],
                      ) -> Tuple[Amount, Amount]:
    """Demand facility i meets per class given leftover budget vector
    (opening, class-1 transport, class-2 transport)."""
    b0, b1, b2 = remaining
    if any(b < 0 for b in remaining) or any(d < 0 for d in d_met):
        raise ValueError("budgets and met demand must be nonnegative")
    if inst.facilities[i - 1].open_cost > b0:
        return Fraction(0), Fraction(0)
    sched1, sched2 = _vector_serve(inst, partition, i, d_met, b1, b2)
    return (sum((a for _, a in sched1), Fraction(0)),
            sum((a for _, a in sched2), Fraction(0)))


@dataclass
class _Entry:
    b0: int
    b1: int
    b2: int
    d1: Amount
    d2: Amount
    parent: Optional["_Entry"]
    facility: Optional[int]
    spend: Optional[Tuple[int, int, int]]

    @property
    def budget_sum(self) -> int:
        return self.b0 + self.b1 + self.b2


_PRUNE_BLOCK = 256


def _weakly_below(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """M[x, y] is True iff column a[:, x] <= column b[:, y] in every row."""
    out = a[0][:, None] <= b[0]
    for r in range(1, len(a)):
        out &= a[r][:, None] <= b[r]
    return out


def _prune(b0: Sequence[int], b1: Sequence[int], b2: Sequence[int],
           d1: Sequence[Amount], d2: Sequence[Amount]) -> List[int]:
    """Indices of the non-dominated candidates, in frontier order.

    Frontier order is (budget sum, b0, b1, b2, -d1, -d2), ties in
    candidate order.  A candidate is kept iff no candidate before it
    dominates it (budgets <= and demands >=): an earlier dominator is
    itself kept or dominated by an earlier kept one.
    """
    scale = math.lcm(*{d.denominator for d in d1},
                     *{d.denominator for d in d2})
    n1 = [d.numerator * (scale // d.denominator) for d in d1]
    n2 = [d.numerator * (scale // d.denominator) for d in d2]
    top = max(max(b0) + max(b1) + max(b2), max(n1), max(n2))
    dtype = np.int64 if top < 2**63 else object
    # every row is "smaller is better", so a dominates b iff a <= b
    keys = np.array([b0, b1, b2, [-x for x in n1], [-x for x in n2]],
                    dtype=dtype)
    order = np.lexsort((keys[4], keys[3], keys[2], keys[1], keys[0],
                        keys[0] + keys[1] + keys[2]))
    keys = keys[:, order]
    if dtype is object:
        # dominance only needs each row's order: compare int64 ranks
        keys = np.array([np.unique(row, return_inverse=True)[1]
                         for row in keys])
    kept_keys = keys[:, :0]
    kept: List[int] = []
    for start in range(0, len(order), _PRUNE_BLOCK):
        block = keys[:, start:start + _PRUNE_BLOCK]
        alive = np.flatnonzero(~_weakly_below(kept_keys, block).any(axis=0))
        block = block[:, alive]
        beaten = np.triu(_weakly_below(block, block), 1).any(axis=0)
        kept_keys = np.concatenate([kept_keys, block[:, ~beaten]], axis=1)
        kept.extend(order[start + alive[~beaten]].tolist())
    return kept


@dataclass(frozen=True)
class TwoClassResult:
    solution: Solution
    grid_budget: int          # minimal b0+b1+b2 covering all demand
    budget_vector: Tuple[int, int, int]
    bound: int
    grid: BudgetGrid


def run_two_class_fptas(inst: Instance, partition: ClientPartition,
                        eps: Rational) -> TwoClassResult:
    """Three-budget grid DP over the non-dominated frontier."""
    partition.validate(inst)
    target1 = sum(inst.demand(j) for j in partition.s1)
    target2 = sum(inst.demand(j) for j in partition.s2)
    try:
        B = find_budget_bound(inst)
    except Infeasible:
        # The scalar bound DP serves strictly right to left and stops at
        # infinite entries, so a non-monotone release pattern can make it
        # miss feasible plans.  Fall back to the open-everything bound;
        # it is still an upper bound on the optimum, only looser.
        B = (sum(f.open_cost for f in inst.facilities)
             + sum(inst.cost(i, j) * inst.demand(j)
                   for i in range(1, inst.m + 1)
                   for j in range(1, inst.n + 1)
                   if not is_inf(inst.cost(i, j))))
        if B < 1:
            B = 1
    grid = BudgetGrid.for_instance(inst.m, B, eps)
    K = grid.K
    endpoint = (grid.size - 1) * K

    def covers(e: _Entry) -> bool:
        return e.d1 >= target1 and e.d2 >= target2

    frontier = [_Entry(0, 0, 0, Fraction(0), Fraction(0), None, None, None)]
    best_cover: Optional[_Entry] = None
    for i in range(inst.m, 0, -1):
        if not frontier:
            break  # every entry reached the best cover's budget sum
        open_spend = grid.round_up(inst.facilities[i - 1].open_cost)
        cap = inst.facilities[i - 1].capacity
        # no candidate above the best cover's budget sum can matter (and
        # no budget sum exceeds 3 * endpoint)
        limit = 3 * endpoint if best_cover is None else best_cover.budget_sum
        # candidates in _Entry field order, in generation order
        cands: List[tuple] = []
        for e in frontier:
            cands.append((e.b0, e.b1, e.b2, e.d1, e.d2, e, None, None))
            b0 = e.b0 + open_spend
            slack = limit - (b0 + e.b1 + e.b2)
            if b0 > endpoint or slack < 0:
                continue
            curve1 = _ServeCurve(inst, i, partition.s1, e.d1)
            curve2 = _ServeCurve(inst, i, partition.s2, e.d2)
            max1 = min(endpoint - e.b1, grid.round_up(curve1.money[-1]), slack)
            max2 = min(endpoint - e.b2, grid.round_up(curve2.money[-1]), slack)
            spends2 = range(0, max2 + 1, K)
            served2 = [curve2.served(s2) for s2 in spends2]
            for s1 in range(0, max1 + 1, K):
                t1 = min(cap, curve1.served(s1))
                room = cap - t1
                d1 = e.d1 + t1
                for s2, f2 in zip(spends2, served2):
                    if s1 + s2 > slack:
                        break
                    t2 = min(room, f2)
                    if t1 + t2 != 0:
                        cands.append((b0, e.b1 + s1, e.b2 + s2, d1, e.d2 + t2,
                                      e, i, (open_spend, s1, s2)))
                    if t2 == room:
                        break
                if t1 == cap:
                    break
        frontier = [_Entry(*cands[k])
                    for k in _prune(*list(zip(*cands))[:5])]
        for e in frontier:
            if covers(e) and (best_cover is None
                              or (e.budget_sum, e.b0, e.b1, e.b2)
                              < (best_cover.budget_sum, best_cover.b0,
                                 best_cover.b1, best_cover.b2)):
                best_cover = e
        if best_cover is not None:
            frontier = [e for e in frontier
                        if e.budget_sum < best_cover.budget_sum
                        or e is best_cover]
    if best_cover is None:
        raise Infeasible("no feasible solution within the budget grid")

    open_facilities = set()
    entries: Dict[Tuple[int, int], Amount] = {}
    transport: Amount = Fraction(0)
    e: Optional[_Entry] = best_cover
    while e is not None:
        if e.facility is not None:
            open_facilities.add(e.facility)
            _, s1, s2 = e.spend
            for sched in _vector_serve(inst, partition, e.facility,
                                       (e.parent.d1, e.parent.d2), s1, s2):
                for j, amount in sched:
                    entries[(e.facility, j)] = (
                        entries.get((e.facility, j), Fraction(0))
                        + Fraction(amount, inst.demand(j)))
                    transport += inst.cost(e.facility, j) * amount
        e = e.parent
    opening = sum(inst.facilities[i - 1].open_cost for i in open_facilities)
    solution = Solution(open_facilities, Flow(entries, transport),
                        opening + transport)
    return TwoClassResult(solution, best_cover.budget_sum,
                          (best_cover.b0, best_cover.b1, best_cover.b2),
                          B, grid)


def solve_two_class_fptas(inst: Instance, partition: ClientPartition,
                          eps: Rational) -> Solution:
    """(1+eps)-style solution for two-class windowed instances."""
    return run_two_class_fptas(inst, partition, eps).solution
