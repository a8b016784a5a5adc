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
amount) per position of the class's clients.  Each level builds one
``kernel.ServeFamily`` per class and sweeps the met demands of all its
entries that can open at once; the facility then serves t1 = f1(s1) of
class 1 and t2 = min(cap - t1, f2(s2)) of class 2.
``ServeFamily.served`` reads f1 at every (entry, s1) and f2 at every
(entry, s2) of the level off the sweep, one numpy call per class.  The
extraction cuts one ``kernel.ServeCurve`` per class of each opened
facility on the chain of the best cover.

Scaled integers.  A level's frontier holds its demands as integers
over one scale S, the lcm of their denominators.  Level i divides by
one cost of row i at most, so its serve curves return amounts over
S * L_i, with L_i the lcm of row i's finite costs above 1: the
candidates' demands are exact integers over S * L_i, and the
facility's capacity and the coverage targets are compared on that
scale.  Dividing every demand and the scale by their gcd before the
prune restores the lcm of the denominators.  No ``Fraction`` is built
before extraction.  A level forms its arrays in int64 when a bound on
every value it forms (budgets, amounts and the serves' money) fits,
and in object arrays of Python ints otherwise.

Spend grid.  A spend past round_up(saturation money) serves nothing
more, so its candidate is strictly dominated by the one at that spend.
The curve's saturation money is where the capacity binds if it does,
so an entry's s1 spends end at the first one that fills the capacity.
Candidates whose budget sum exceeds the best cover found so far can
neither be chosen nor dominate a candidate that can, so a pair needs
s1 + s2 within the entry's slack.  In the (s1, s2) grid of an entry, a
row keeps its spends s2 up to the first that fills the room class 1
left: f2 is nondecreasing, so that is s2 = 0 or f2 at the previous
spend below the room.  Pairs that serve nothing are dropped.  The
level's pairs are masked as arrays, and the candidates come out in
generation order: each entry's closed candidate, then its open ones
row by row.  None of the skipped candidates could survive the prune,
which keeps the same frontier as with the full grid.

Prune.  The prune ranks each key (b0, b1, b2, -d1, -d2) with
``np.unique``, whatever the level's dtype, and drops keys that are
constant over the level (b2 and d2 when class 2 is empty).  Frontier
order is (budget sum, b0, b1, b2, -d1, -d2), ties in generation order,
and a candidate is kept iff no candidate before it dominates it.  That
keeps the maxima of the vector set (Kung, Luccio & Preparata, JACM
1975) and, among equal vectors, the first generated.

Rank grid.  Frontier order puts every dominator before what it
dominates, so a candidate is kept iff no different vector dominates it
and no equal one was generated before it, and that needs no order.
The varying key with the most ranks is the value; the others, at most
four, are the axes of a grid whose cells hold their least value rank.
Running minima along every axis then give, at each cell, the least
value at or below it on every axis.  A candidate is kept iff the cells
one step down each axis hold only larger values, its own cell's least
value is its own, and it is the first candidate with that cell and
value.  One sort of the kept rows puts them in frontier order.  The
grid is built only if it has at most 32 cells per candidate plus a
constant, so its memory stays O(F) for F candidates.

Packed words.  A level whose grid would be larger is pruned in frontier
order by compares.  The ranks of F candidates take w = bit_length(F)
+ 1 bits each, whose top bit is a guard, packed into as many int64
words as the keys need; a <= b in every field of a word iff
((b | G) - a) & G == G, with G the guard bits.  Dominance is tested
block by block with numpy broadcasting on the words: against the kept
set, a chunk at a time from the latest kept, whose budget sums are
nearest the block's, with only the block's survivors left to test;
then within the block.

Lazy schedules.  A level's frontier holds its entries' budgets and
demands as arrays, with each entry's parent as a row of the previous
level's frontier and whether it opened the level's facility, but no
schedule; the spends are the budget differences to the parent, and
extraction rebuilds the schedules along the chain of the best cover
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .exact import Solution
from .fptas import (BudgetGrid, Rational, find_budget_bound,
                    serve_everything_costs)
from .kernel import ServeCurve, ServeFamily
from .model import (Infeasible, Instance, MongeWitness, check_monge_full,
                    is_inf, require_int)


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
        for field, clients in (("s1", tuple(s1)), ("s2", tuple(s2))):
            require_int(f"each {field} entry", *clients)
            object.__setattr__(self, field, clients)

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
    windows, then runs the full Monge check, which decides such
    staircases from consecutive rows (see ``check_monge_full``).
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
    curve1 = ServeCurve(ServeFamily(inst, i, partition.s1), d_met[0], scale)
    curve2 = ServeCurve(ServeFamily(inst, i, partition.s2), d_met[1], scale)
    t1 = curve1.served(money1 * scale)
    room = inst.facilities[i - 1].capacity * curve1.unit - t1
    return (curve1.schedule(t1),
            curve2.schedule(min(room, curve2.served(money2 * scale))))


@dataclass
class _Frontier:
    """A level's entries, one row each: a pruned frontier in frontier
    order, or candidates in generation order.  Budgets and met demands
    (over ``scale``), the row of each entry's parent in the previous
    level's frontier, and whether it opened the level's facility."""

    b0: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    scale: int
    parent: np.ndarray
    opened: np.ndarray

    def take(self, rows: np.ndarray) -> "_Frontier":
        return _Frontier(self.b0[rows], self.b1[rows], self.b2[rows],
                         self.d1[rows], self.d2[rows], self.scale,
                         self.parent[rows], self.opened[rows])


def _prune(b0: Sequence[int], b1: Sequence[int], b2: Sequence[int],
           d1: Sequence[int], d2: Sequence[int]) -> List[int]:
    """Indices of the non-dominated candidates, in frontier order.

    Frontier order is (budget sum, b0, b1, b2, -d1, -d2), ties in
    candidate order.  A candidate is kept iff no candidate before it
    dominates it (budgets <= and demands >=): an earlier dominator is
    itself kept or dominated by an earlier kept one.  Rows are integer
    sequences or arrays, int64 or object.  Dominance is decided on a
    rank grid where it fits and by packed words otherwise.
    """
    rows = [np.asarray(row) for row in (b0, b1, b2, d1, d2)]
    if (any(row.dtype != np.int64 for row in rows)
            or sum(int(row.max()) for row in rows[:3]) >= 2**63):
        rows = [row.astype(object) for row in rows]
    # every key is "smaller is better", so a dominates b iff a <= b; its
    # int64 ranks compare the same way, and a constant key decides
    # nothing (b2 and d2 of a partition without class 2)
    ranks = [np.unique(key, return_inverse=True)[1]
             for key in (rows[0], rows[1], rows[2], -rows[3], -rows[4])
             if (key != key[0]).any()]
    if not ranks:  # all candidates are equal: the first one is kept
        return [0]
    kept = _grid_prune(ranks)
    if kept is None:
        return _packed_prune(ranks, rows[0] + rows[1] + rows[2])
    budget = rows[0][kept] + rows[1][kept] + rows[2][kept]
    return kept[np.lexsort((*(rank[kept] for rank in ranks[::-1]),
                            budget))].tolist()


# the rank grid holds at most this many cells per candidate, plus a
# constant, so its memory stays O(F) for F candidates
_GRID_CELLS_PER_CANDIDATE = 32
_GRID_CELLS_EXTRA = 1024


def _grid_prune(ranks: List[np.ndarray]) -> Optional[np.ndarray]:
    """Rows of the candidates that no different vector dominates, the
    first of equal ones, in no set order; None when the rank grid would
    exceed its cap (see the module docstring).

    A different vector dominates a candidate iff its value is at most
    the candidate's and its cell is at or below one step down some
    axis, or it is in the same cell with a smaller value.  Coordinates
    start at 1, so the slab at 0 of each axis is a step down that holds
    no candidate.
    """
    sizes = [int(rank.max()) + 2 for rank in ranks]
    v = int(np.argmax(sizes))
    axes = ranks[:v] + ranks[v + 1:]
    shape = sizes[:v] + sizes[v + 1:]
    total = len(ranks[v])
    if math.prod(shape) > (_GRID_CELLS_PER_CANDIDATE * total
                           + _GRID_CELLS_EXTRA):
        return None
    strides = [math.prod(shape[k + 1:]) for k in range(len(shape))]
    cell = np.zeros(total, dtype=np.int64)
    for rank, stride in zip(axes, strides):
        cell += (rank + 1) * stride
    # the grid starts at sizes[v] - 1, the number of values, above every
    # value rank; int32 halves its memory, and the values take its dtype
    # because ``np.minimum.at`` is only fast on matching dtypes
    kind = np.int32 if sizes[v] < 2**31 else np.int64
    value = ranks[v].astype(kind)
    grid = np.full(shape, sizes[v] - 1, dtype=kind)
    flat = grid.reshape(-1)
    np.minimum.at(flat, cell, value)
    fresh = flat[cell] == value
    for axis in range(len(shape)):
        np.minimum.accumulate(grid, axis=axis, out=grid)
    for stride in strides:
        fresh &= flat[cell - stride] > value
    fresh = np.flatnonzero(fresh)
    # equal vectors share a cell and a value: keep the first of them
    return fresh[np.unique(cell[fresh], return_index=True)[1]]


_PRUNE_BLOCK = 128
_KEPT_CHUNK = 256
# x < y within a block: an earlier candidate can beat a later one
_EARLIER = np.triu(np.ones((_PRUNE_BLOCK, _PRUNE_BLOCK), dtype=bool), 1)


def _below(a: np.ndarray, b: np.ndarray, guard: np.int64) -> np.ndarray:
    """M[x, y] is True iff every field of the packed words a[:, x] is <=
    the same field of b[:, y].

    A field's top bit is its guard, set in ``guard`` and clear in every
    key, so (b | guard) - a borrows from no other field and keeps the
    guard bit iff a <= b in that field.  Every word has its guards in
    the same places, so the words' differences are and-ed first.
    """
    diff = (b[0] | guard) - a[0][:, None]
    if len(a) > 1:
        word = np.empty_like(diff)
        for word_a, word_b in zip(a[1:], b[1:]):
            np.subtract(word_b | guard, word_a[:, None], out=word)
            diff &= word
    diff &= guard
    return diff == guard


def _packed_prune(ranks: List[np.ndarray], budget: np.ndarray) -> List[int]:
    """``_prune`` by compares of packed rank words, block by block."""
    order = np.lexsort((*ranks[::-1], budget))
    # pack the ranks, w bits per field, as many fields per word as fit
    total = len(order)
    width = total.bit_length() + 1
    per_word = 63 // width
    words = np.zeros((-(-len(ranks) // per_word), total), dtype=np.int64)
    for k, rank in enumerate(ranks):
        words[k // per_word] |= rank[order] << width * (k % per_word)
    guard = np.int64(sum(1 << width * f + width - 1
                         for f in range(per_word)))
    kept_words = np.empty_like(words)
    kept = np.empty(total, dtype=np.int64)
    count = 0
    for start in range(0, total, _PRUNE_BLOCK):
        block = words[:, start:start + _PRUNE_BLOCK]
        # against the kept set, latest first, a chunk at a time, with
        # only the block's survivors left to test
        alive = np.arange(block.shape[1])
        for stop in range(count, 0, -_KEPT_CHUNK):
            beaten = _below(kept_words[:, max(0, stop - _KEPT_CHUNK):stop],
                            block[:, alive], guard).any(axis=0)
            alive = alive[~beaten]
            if not len(alive):
                break
        block = block[:, alive]
        n = block.shape[1]
        fresh = ~(_below(block, block, guard)
                  & _EARLIER[:n, :n]).any(axis=0)
        added = np.count_nonzero(fresh)
        kept_words[:, count:count + added] = block[:, fresh]
        kept[count:count + added] = start + alive[fresh]
        count += added
    return order[kept[:count]].tolist()


@dataclass(frozen=True)
class TwoClassResult:
    solution: Solution
    grid_budget: int          # minimal b0+b1+b2 covering all demand
    budget_vector: Tuple[int, int, int]
    bound: int
    grid: BudgetGrid
    # (candidates, kept by the prune) per facility level, in solve order
    levels: Tuple[Tuple[int, int], ...] = ()


def _grid_runs(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(owner, index) of every item of consecutive runs of ``counts``
    items: run r contributes (r, 0), ..., (r, counts[r] - 1)."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _candidates(prev: _Frontier, inst: Instance, partition: ClientPartition,
                i: int, grid: BudgetGrid, limit: int) -> _Frontier:
    """Facility i's candidates in generation order: each entry of
    ``prev`` closed, then opened with its grid spend pairs (s1, s2) row
    by row, at budget sums up to ``limit``.  Their demands are over
    ``prev.scale`` times the lcm of row i's costs, and parents are rows
    of ``prev``."""
    K = grid.K
    endpoint = (grid.size - 1) * K
    facility = inst.facilities[i - 1]
    open_spend = grid.round_up(facility.open_cost)
    scale = prev.scale
    family1 = ServeFamily(inst, i, partition.s1)
    family2 = ServeFamily(inst, i, partition.s2)
    lcm = family1.lcm
    unit = scale * lcm  # the scale of the candidates' demands
    step = K * scale  # scaled money one grid step adds
    # every value formed below is under top: the sweeps form at most
    # before[-1] * scale and money[-1] * scale of their family, and
    # their readings at most (total demand + endpoint) * unit
    top = ((inst.total_demand + facility.capacity + endpoint
            + max(family1.money[-1], family2.money[-1])) * unit
           + 3 * endpoint)
    dtype = np.int64 if 2 * top < 2**63 else object
    b0, b1, b2, d1, d2 = (a.astype(dtype) for a in
                          (prev.b0, prev.b1, prev.b2, prev.d1, prev.d2))
    entries = len(b0)
    # the entries that can open, and the grid steps each may add to its
    # budget sum
    can_open = np.arange(0)
    steps = np.zeros(0, dtype=dtype)
    if open_spend <= endpoint:
        steps = (limit - open_spend - (b0 + b1 + b2)) // K
        can_open = np.flatnonzero((b0 <= endpoint - open_spend)
                                  & (steps >= 0))
        steps = steps[can_open]

    def spends(budget, family, met):
        """The entries' walks of one class and their numbers of spends:
        up to the saturation money (all a walk spends) rounded up to the
        grid, within the endpoint and the steps."""
        walks = family.sweep(met[can_open], scale, dtype)
        return walks, np.minimum(np.minimum(
            (endpoint - budget[can_open]) // K, -(-walks[1][:, -1] // step)),
            steps).astype(np.int64) + 1

    walks1, n1 = spends(b1, family1, d1)
    walks2, n2 = spends(b2, family2, d2)
    # class 1 once per (entry, s1) row, class 2 once per (entry, s2)
    row_entry, j1 = _grid_runs(n1)
    t1 = family1.served(walks1, row_entry, j1.astype(dtype) * step)
    col_entry, col = _grid_runs(n2)
    f2 = family2.served(walks2, col_entry, col.astype(dtype) * step)
    # each row's spends s2 with s1 + s2 within the steps, row-major
    width = np.minimum(n2[row_entry],
                       np.minimum(steps, n1 + n2).astype(np.int64)
                       [row_entry] - j1 + 1)
    row, j2 = _grid_runs(width)
    entry = row_entry[row]
    k2 = (np.cumsum(n2) - n2)[entry] + j2
    t1 = t1[row]
    room = facility.capacity * unit - t1
    t2 = np.minimum(room, f2[k2])
    # f2 is nondecreasing, so a row ends after the first spend that
    # fills the room class 1 left
    keep = (t1 + t2 != 0) & ((j2 == 0) | (f2[k2 - 1] < room))
    entry, j1, j2, t1, t2 = (a[keep] for a in (entry, j1[row], j2, t1, t2))
    parent = can_open[entry]
    # each entry's closed candidate, then its open ones
    size = entries + len(parent)
    closed_at = np.arange(entries) + np.searchsorted(parent,
                                                     np.arange(entries))
    open_at = np.arange(len(parent)) + parent + 1

    def place(closed, opened, kind=dtype):
        out = np.empty(size, dtype=kind)
        out[closed_at] = closed
        out[open_at] = opened
        return out

    return _Frontier(place(b0, b0[parent] + open_spend),
                     place(b1, b1[parent] + j1.astype(dtype) * K),
                     place(b2, b2[parent] + j2.astype(dtype) * K),
                     place(d1 * lcm, d1[parent] * lcm + t1),
                     place(d2 * lcm, d2[parent] * lcm + t2), unit,
                     place(np.arange(entries), parent, np.int64),
                     place(False, True, bool))


def _level(prev: _Frontier, inst: Instance, partition: ClientPartition,
           i: int, grid: BudgetGrid, limit: int) -> Tuple[_Frontier, int]:
    """Facility i's pruned frontier over ``prev``, and its number of
    candidates.  The candidates are built in a call of their own, so
    the arrays that formed them are freed before the prune runs."""
    cand = _candidates(prev, inst, partition, i, grid, limit)
    # the smallest scale that keeps every demand whole: the lcm of
    # their denominators
    g = math.gcd(cand.scale, int(np.gcd.reduce(cand.d1)),
                 int(np.gcd.reduce(cand.d2)))
    if g > 1:
        cand.d1 //= g
        cand.d2 //= g
        cand.scale //= g
    kept = _prune(cand.b0, cand.b1, cand.b2, cand.d1, cand.d2)
    return cand.take(np.array(kept, dtype=np.int64)), len(cand.b0)


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

    zero = np.zeros(1, dtype=np.int64)
    # history[L] is the frontier after L levels, facilities m..m - L + 1
    history = [_Frontier(zero, zero, zero, zero, zero, 1, zero,
                         np.zeros(1, dtype=bool))]
    # (budget sum, b0, b1, b2) of the best cover, its level and its row
    best: Optional[Tuple[Tuple[int, int, int, int], int, int]] = None
    levels: List[Tuple[int, int]] = []
    for i in range(inst.m, 0, -1):
        if not len(history[-1].b0):
            break  # every entry reached the best cover's budget sum
        # no candidate above the best cover's budget sum can matter (and
        # no budget sum exceeds 3 * endpoint)
        limit = 3 * (grid.size - 1) * grid.K if best is None else best[0][0]
        frontier, size = _level(history[-1], inst, partition, i, grid,
                                limit)
        levels.append((size, len(frontier.b0)))
        # frontier order starts with the least (budget sum, b0, b1, b2),
        # so the first entry that covers all demand is the level's best
        budget = frontier.b0 + frontier.b1 + frontier.b2
        covers = np.flatnonzero((frontier.d1 >= target1 * frontier.scale)
                                & (frontier.d2 >= target2 * frontier.scale))
        stay = None
        if len(covers):
            k = covers[0]
            key = tuple(int(a[k]) for a in (budget, frontier.b0, frontier.b1,
                                            frontier.b2))
            if best is None or key < best[0]:
                # no entry at the best cover's budget sum or above can
                # beat it, and its row follows every one below
                stay = budget < key[0]
                best = key, len(history), np.count_nonzero(stay)
                stay[k] = True
        if stay is None and best is not None:
            stay = budget < best[0][0]
        history.append(frontier if stay is None
                       else frontier.take(np.flatnonzero(stay)))
    if best is None:
        raise Infeasible("no feasible solution within the budget grid")

    served: List[Tuple[int, int, Fraction]] = []
    (grid_budget, *budget_vector), level, row = best
    for i in range(inst.m - level + 1, inst.m + 1):
        now, prev = history[level], history[level - 1]
        p = int(now.parent[row])
        if now.opened[row]:
            for sched in _vector_serve(
                    inst, partition, i, (int(prev.d1[p]), int(prev.d2[p])),
                    prev.scale, int(now.b1[row]) - int(prev.b1[p]),
                    int(now.b2[row]) - int(prev.b2[p])):
                served += [(i, j, amount) for j, amount in sched]
        level, row = level - 1, p
    solution = Solution.from_served(inst, served)
    return TwoClassResult(solution, grid_budget, tuple(budget_vector), B,
                          grid, tuple(levels))


def solve_two_class_fptas(inst: Instance, partition: ClientPartition,
                          eps: Rational) -> Solution:
    """(1+eps)-style solution for two-class windowed instances."""
    return run_two_class_fptas(inst, partition, eps).solution
