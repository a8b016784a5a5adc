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
facility serves right to left, up to its capacity, is a piecewise
linear function f of the money spent, with one breakpoint (money,
amount) per residual client it reaches: a ``kernel.ServeCurve`` over
the class's clients.  It is built once per (entry, class); the facility
then serves t1 = f(s1) of class 1 and min(cap - t1, f(s2)) of class 2,
so class 1 is evaluated once per s1 and class 2 once per s2.

Scaled integers.  A level's frontier holds its demands as integers
over one scale S, the lcm of their denominators.  Level i divides by
one cost of row i at most, so its serve curves return amounts over
S * L_i, with L_i the lcm of row i's finite costs above 1: the
candidates' demands are exact integers over S * L_i, and the
facility's capacity and the coverage targets are compared on that
scale.  Dividing every demand and the scale by their gcd before the
prune restores the lcm of the denominators.  No ``Fraction`` is built
before extraction.

Spend loops.  A spend past round_up(saturation money) serves nothing
more, so its candidate is strictly dominated by the one at that spend.
The curve's saturation money is where the capacity binds if it does,
so the s1 loop ends at the first spend that fills the capacity, and
the s2 loop ends at the first spend that fills the room class 1 left.
Candidates whose budget sum exceeds the best cover found so far can
neither be chosen nor dominate a candidate that can.  None of these is
generated, and the pruned frontier is the same as with the full grid.

Integer-keyed prune.  The prune sorts candidates stably by (budget
sum, b0, b1, b2, -d1, -d2) on the level's integer keys: int64, or
Python ints in an object array when a key does not fit; object keys
are then replaced row by row by their int64 ranks, which compare the
same way.  A candidate is kept iff no candidate before it dominates it.
That keeps the maxima of the vector set (Kung, Luccio & Preparata, JACM
1975) and, among equal vectors, the first generated.  Dominance is
tested block by block with numpy broadcasting, against the kept set
and within the block.

Lazy schedules.  Frontier entries record their budgets, parent and
opened facility but no schedule; the spends are the budget differences
to the parent, and extraction rebuilds the schedules along the chain
of the best cover only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .exact import Solution
from .fptas import (BudgetGrid, Rational, find_budget_bound,
                    serve_everything_costs)
from .kernel import ServeCurve, cost_lcm
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


def _vector_serve(inst: Instance, partition: ClientPartition, i: int,
                  d_met: Tuple[int, int], scale: int, money1: int,
                  money2: int,
                  ) -> Tuple[List[Tuple[int, Fraction]],
                             List[Tuple[int, Fraction]]]:
    """Schedules of an open facility i: class 1 first, then class 2 on
    the capacity class 1 leaves.  ``d_met`` is scaled by ``scale``."""
    lcm = cost_lcm(inst.costs[i - 1])
    curve1 = ServeCurve(inst, i, partition.s1, d_met[0], scale, lcm)
    curve2 = ServeCurve(inst, i, partition.s2, d_met[1], scale, lcm)
    t1 = curve1.served(money1 * scale)
    room = inst.facilities[i - 1].capacity * curve1.unit - t1
    return (curve1.schedule(t1),
            curve2.schedule(min(room, curve2.served(money2 * scale))))


@dataclass
class _Entry:
    b0: int
    b1: int
    b2: int
    d1: int  # demands met, scaled by ``scale``
    d2: int
    scale: int
    parent: Optional["_Entry"]
    facility: Optional[int]  # opened on top of parent, None if closed

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
           d1: Sequence[int], d2: Sequence[int]) -> List[int]:
    """Indices of the non-dominated candidates, in frontier order.

    Frontier order is (budget sum, b0, b1, b2, -d1, -d2), ties in
    candidate order.  A candidate is kept iff no candidate before it
    dominates it (budgets <= and demands >=): an earlier dominator is
    itself kept or dominated by an earlier kept one.
    """
    top = max(max(b0) + max(b1) + max(b2), max(d1), max(d2))
    dtype = np.int64 if top < 2**63 else object
    keys = np.array([b0, b1, b2, d1, d2], dtype=dtype)
    # every row is "smaller is better", so a dominates b iff a <= b
    keys[3:] *= -1
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
        B = max(1, sum(serve_everything_costs(inst)))
    grid = BudgetGrid.for_instance(inst.m, B, eps)
    K = grid.K
    endpoint = (grid.size - 1) * K

    frontier = [_Entry(0, 0, 0, 0, 0, 1, None, None)]
    best_cover: Optional[_Entry] = None
    for i in range(inst.m, 0, -1):
        if not frontier:
            break  # every entry reached the best cover's budget sum
        open_spend = grid.round_up(inst.facilities[i - 1].open_cost)
        lcm = cost_lcm(inst.costs[i - 1])
        scale = frontier[0].scale
        unit = scale * lcm  # the scale of this level's candidate demands
        cap = inst.facilities[i - 1].capacity * unit
        step = K * scale  # scaled money one grid step adds
        # no candidate above the best cover's budget sum can matter (and
        # no budget sum exceeds 3 * endpoint)
        limit = 3 * endpoint if best_cover is None else best_cover.budget_sum
        # candidates in generation order: b2 and d2 per candidate, and
        # (b0, b1, d1, parent, facility opened, count) per run of
        # candidates that share them
        b2s: List[int] = []
        d2s: List[int] = []
        runs: List[tuple] = []
        for e in frontier:
            d1, d2 = e.d1 * lcm, e.d2 * lcm
            b2s.append(e.b2)
            d2s.append(d2)
            runs.append((e.b0, e.b1, d1, e, None, 1))  # i stays closed
            b0 = e.b0 + open_spend
            slack = limit - (b0 + e.b1 + e.b2)
            if b0 > endpoint or slack < 0:
                continue
            curve1 = ServeCurve(inst, i, partition.s1, e.d1, scale, lcm)
            curve2 = ServeCurve(inst, i, partition.s2, e.d2, scale, lcm)
            # spends up to the saturation money rounded up to the grid
            max1 = min(endpoint - e.b1, -(-curve1.money[-1] // step) * K,
                       slack)
            max2 = min(endpoint - e.b2, -(-curve2.money[-1] // step) * K,
                       slack)
            spends2 = range(0, max2 + 1, K)
            served2 = [curve2.served(s2 * scale) for s2 in spends2]
            for s1 in range(0, max1 + 1, K):
                t1 = curve1.served(s1 * scale)
                room = cap - t1
                count = len(b2s)
                for s2, f2 in zip(spends2, served2):
                    if s1 + s2 > slack:
                        break
                    t2 = min(room, f2)
                    if t1 + t2 != 0:
                        b2s.append(e.b2 + s2)
                        d2s.append(d2 + t2)
                    if t2 == room:
                        break
                runs.append((b0, e.b1 + s1, d1 + t1, e, i, len(b2s) - count))
        b0s, b1s, d1s, parents, opened = (
            list(chain.from_iterable(repeat(run[col], run[5]) for run in runs))
            for col in range(5))
        del runs  # freed before the prune, the level's memory peak
        # the smallest scale that keeps every demand whole: the lcm of
        # their denominators
        g = math.gcd(unit, *d1s, *d2s)
        if g > 1:
            d1s = [d // g for d in d1s]
            d2s = [d // g for d in d2s]
        scale = unit // g
        frontier = [_Entry(b0s[k], b1s[k], b2s[k], d1s[k], d2s[k], scale,
                           parents[k], opened[k])
                    for k in _prune(b0s, b1s, b2s, d1s, d2s)]
        need1, need2 = target1 * scale, target2 * scale
        for e in frontier:
            if e.d1 >= need1 and e.d2 >= need2 and (
                    best_cover is None
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

    served: List[Tuple[int, int, Fraction]] = []
    e: Optional[_Entry] = best_cover
    while e is not None:
        if e.facility is not None:
            parent = e.parent
            for sched in _vector_serve(inst, partition, e.facility,
                                       (parent.d1, parent.d2), parent.scale,
                                       e.b1 - parent.b1, e.b2 - parent.b2):
                served += [(e.facility, j, amount) for j, amount in sched]
        e = e.parent
    solution = Solution.from_served(inst, served)
    return TwoClassResult(solution, best_cover.budget_sum,
                          (best_cover.b0, best_cover.b1, best_cover.b2),
                          B, grid)


def solve_two_class_fptas(inst: Instance, partition: ClientPartition,
                          eps: Rational) -> Solution:
    """(1+eps)-style solution for two-class windowed instances."""
    return run_two_class_fptas(inst, partition, eps).solution
