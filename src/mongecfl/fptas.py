"""Budget-grid approximation scheme for non-polynomial demands.

Three pieces: a per-facility contribution bound found by binary search,
the rounded value-function table over budgets restricted to multiples of
K, and (1+eps) solution extraction by backpointer replay.

The table is stored as integers scaled by a power of lcm(costs).  Every
value the recurrence can produce is a rational whose denominator
divides lcm(costs)**m: each facility level introduces at most one
division, by one cost entry (the budget-limited partial client).  The
fill starts from a small exponent and escalates when a division is
inexact.  numpy int64 is used when the scaled magnitudes fit, and
object arrays of Python ints otherwise, so the arithmetic is exact
either way.

Table fill.  Row i at grid index s is the best, over carry-over
offsets t <= s, of prev[t] (the demand facilities i+1..m meet within
t*K) plus the demand facility i serves by spending q*K, q = s - t.  For
fixed (i, t) that serve curve is piecewise linear in q, with one piece
per client facility i reaches after prev[t] is taken from the right.
Its breakpoints are computed with Python ints, and the curve splits
into at most n+2 index ranges of q:

* pre-open, q*K < open_cost: nothing is served;
* one linear segment [lo, hi) per client served at a positive rate r,
  where the scaled served demand is A + extra(q) / r.  extra(q) is the
  scaled money spent past the segment's breakpoint, so
  extra(q) = e0 + (q - lo)*K*scale with e0 = extra(lo).  The segment is
  written as one strided slice (arange * step + const, with arange *
  step built once per rate and level) and merged into the row where it
  is larger;
* the saturated tail past the last breakpoint, where served demand is
  a constant A_L.  Free (zero-cost) clients have empty index ranges and
  only add to the next segment's A.

Exactness is checked once per segment instead of once per point: every
extra(q) on [lo, hi) is a multiple of r exactly when r divides e0 and,
if the segment has more than one point, r divides K*scale (consecutive
points differ by K*scale).  So a fill raises on exactly the scales
where some evaluated point would have an inexact division.

Row i is the lexicographic max over (value, -t) of all these offers: a
larger value wins, and equal values keep the smallest carry-over t.
Segments are offered in increasing t and replace only a strictly
larger value, which builds that max over the segments; as the max does
not depend on the order of the offers, the other two kinds are merged
once per row, after all t:

* saturated tails.  The tail of (i, t) is the constant prev[t] + A_L at
  every index from t + lo_L on, so it is recorded at that start index
  only; one sweep takes the running lexicographic max and merges it in.
* pre-open ranges.  At index s the pre-open offers come from the t in
  (s - q_open, s] with value prev[t].  prev is nondecreasing in t
  (more budget never meets less demand), so their max is prev[s] from
  the smallest such t with prev[t] = prev[s]: max(run_start(s),
  s - q_open + 1), run_start(s) the first index of the run of equal
  values that holds s.  One vectorised merge per row.

Only the first t of each run of equal values in prev is walked.  If
prev[t] = prev[t - 1], both offsets walk the same serve curve f, so the
offer of t at s, prev[t] + f(s - t), is at most that of t - 1,
prev[t] + f(s - t + 1) (f is nondecreasing), and t - 1 wins ties.
Every segment of t has the same e0 as the matching segment of t - 1 and
a range no longer than it, so t raises ``_ScaleError`` only if t - 1
already did: the skipped offsets change neither the table nor the
fills that escalate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .exact import Solution
from .kernel import FULL, Amount, Flow, demand_met, serve_schedule, shared
from .model import Infeasible, Instance, is_inf

Rational = Union[int, float, str, Fraction]


def _as_fraction(eps: Rational) -> Fraction:
    return eps if isinstance(eps, Fraction) else Fraction(eps)


@dataclass(frozen=True)
class BudgetGrid:
    """Budgets restricted to multiples of K, from 0 to (ceil(B/K)+m)K.

    K = max(1, ceil(eps*B / (m(m+1)))).  ``size`` may exceed the
    standard endpoint when a caller extends the grid (test harnesses
    probing the rounding guarantee past the nominal range).
    """

    K: int
    B: int
    m: int
    size: int  # number of grid points, endpoint = (size-1)*K

    @classmethod
    def for_instance(cls, m: int, B: int, eps: Rational,
                     extend_to: Optional[int] = None) -> "BudgetGrid":
        if B < 1 or m < 1:
            raise ValueError("B and m must be positive")
        eps = _as_fraction(eps)
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        K = max(1, math.ceil(eps * B / (m * (m + 1))))
        size = math.ceil(B / K) + m + 1
        if extend_to is not None:
            size = max(size, math.ceil(extend_to / K) + 1)
        return cls(K, B, m, size)

    @property
    def points(self) -> List[int]:
        return [t * self.K for t in range(self.size)]

    def round_up(self, x) -> int:
        """x rounded up to the nearest multiple of K."""
        return math.ceil(Fraction(x) / self.K) * self.K

    def round_down(self, x) -> int:
        return math.floor(Fraction(x) / self.K) * self.K

    def index(self, b: int) -> int:
        if b % self.K != 0 or not 0 <= b <= (self.size - 1) * self.K:
            raise ValueError(f"budget {b} not on the grid")
        return b // self.K


def max_contribution_feasible(inst: Instance, ell: int,
                              ) -> Tuple[bool, Dict[int, Amount]]:
    """Can every facility contribute at most ell to the total cost?

    Runs the right-to-left bound recurrence; returns the feasibility
    flag and the per-facility cumulative values (index m+1 down to 1).
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    values: Dict[int, Amount] = {inst.m + 1: Fraction(0)}
    for i in range(inst.m, 0, -1):
        values[i] = values[i + 1] + demand_met(inst, i, values[i + 1], ell)
    return values[1] >= inst.total_demand, values


def contribution_search_limit(inst: Instance) -> int:
    """Upper end of the binary-search range for the contribution cap."""
    return max(
        f.open_cost + sum(inst.cost(i, j) * inst.demand(j)
                          for j in range(1, inst.n + 1)
                          if not is_inf(inst.cost(i, j)))
        for i, f in enumerate(inst.facilities, start=1))


def find_min_contribution(inst: Instance) -> int:
    """Smallest integer ell admitting a solution where every open
    facility contributes at most ell; raises Infeasible if none."""
    hi = contribution_search_limit(inst)
    if not max_contribution_feasible(inst, hi)[0]:
        raise Infeasible("no feasible solution")
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if max_contribution_feasible(inst, mid)[0]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def find_budget_bound(inst: Instance) -> int:
    """An integer B with z* <= B <= m * z* (B = m times the minimum
    per-facility contribution cap)."""
    return inst.m * find_min_contribution(inst)


def _cost_scale_base(inst: Instance) -> int:
    """lcm of the finite nonzero cost entries."""
    base = 1
    for row in inst.costs:
        for c in row:
            if not is_inf(c) and c > 1:
                base = math.lcm(base, c)
    return base


class _ScaleError(Exception):
    """A scaled division came out inexact; retry with a larger scale."""


@dataclass
class ValueTable:
    """Rounded value functions over the budget grid, with backpointers.

    rows[i-1][t] is the maximum demand facilities i..m can meet within
    budget t*K, scaled by ``scale``; rows[m] is the all-zero base level.
    choices[i-1][t] is the grid index of the maximizing carry-over
    budget b'.
    """

    grid: BudgetGrid
    scale: int
    rows: List[np.ndarray]
    choices: List[np.ndarray]
    curves: int = 0  # (facility, carry-over) serve curves the fill walked

    def value(self, i: int, b: int) -> Fraction:
        return Fraction(int(self.rows[i - 1][self.grid.index(b)]), self.scale)

    def choice(self, i: int, b: int) -> int:
        return int(self.choices[i - 1][self.grid.index(b)]) * self.grid.K


def build_value_table(inst: Instance, grid: BudgetGrid) -> ValueTable:
    """Fill the rounded recurrence bottom-up from the last facility.

    Ties in the maximization break toward the smallest carry-over
    budget b'.

    Each (facility, carry-over budget) serve curve is evaluated one
    segment at a time: one strided slice per linear piece, and a
    saturated tail that is deferred to a per-row running max (see the
    module docstring).  A linear piece extra(q) = e0 + (q - lo)*K*scale
    divides exactly by its rate r at every point iff r | e0 and, for
    pieces of two or more points, r | K*scale, so inexactness is
    detected once per piece.  The pre-open ranges of all carry-overs
    are one vectorised offer per row.  Deferred tails and pre-open
    ranges merge under the lexicographic max over (value, -t), which
    keeps the tie-break toward the smallest carry-over budget.

    Only the first carry-over of each run of equal values in the row
    below builds a serve curve: a later one of the same run walks the
    same curve one grid step later, so it never wins and raises
    ``_ScaleError`` only where the first one already did.  ``curves``
    counts the curves the successful fill walked.

    Values are stored as integers scaled by lcm(costs)**k.  Denominators
    only enter through the budget-limited partial serve, one cost factor
    per facility level, so k = m always suffices; most tables need far
    less, so the fill starts with a small k and retries with a larger
    one whenever a scaled division comes out inexact.  An exponent that
    ran to completion without tripping that check yields an exact table.
    """
    base = _cost_scale_base(inst)
    k = min(inst.m, 2)
    while True:
        try:
            return _fill_table(inst, grid, base ** k)
        except _ScaleError:
            if k >= inst.m:
                raise
            k = min(inst.m, k * 2)


def _offer(row: np.ndarray, choice: np.ndarray, lo: int, hi: int,
           cand, t: int) -> None:
    """Write cand over row[lo:hi] where it is strictly larger, with
    backpointer t; an equal value keeps its earlier, smaller t."""
    seg = row[lo:hi]
    better = np.greater(cand, seg)
    np.copyto(seg, cand, where=better)
    np.copyto(choice[lo:hi], t, where=better)


def _merge(row: np.ndarray, choice: np.ndarray, values: np.ndarray,
           carries: np.ndarray) -> None:
    """Merge (values, carries) into (row, choice) under the lexicographic
    max over (value, -t): a larger value wins, an equal value keeps the
    smaller carry-over."""
    better = (values > row) | ((values == row) & (carries < choice))
    np.copyto(row, values, where=better)
    np.copyto(choice, carries, where=better)


def _merge_tails(row: np.ndarray, choice: np.ndarray,
                 tails: List[Optional[Tuple[int, int]]]) -> None:
    """Fold saturated tails into a filled row.

    tails[s] is the best (value, t) among tails starting at index s; a
    tail holds its value at every index from its start on.  One sweep
    takes the running lexicographic max over (value, -t), which is then
    merged into the row under the same rule.
    """
    best_value, best_t = -1, 0
    values, carries = [], []
    for tail in tails:
        if tail is not None and (tail[0] > best_value or (
                tail[0] == best_value and tail[1] < best_t)):
            best_value, best_t = tail
        values.append(best_value)
        carries.append(best_t)
    _merge(row, choice, np.array(values, dtype=row.dtype),
           np.array(carries, dtype=np.int64))


def _fill_table(inst: Instance, grid: BudgetGrid, scale: int) -> ValueTable:
    # headroom for scaled money values: serve-everything cost can exceed
    # the grid endpoint, so bound by whichever is larger
    money_max = max((grid.size - 1) * grid.K, contribution_search_limit(inst))
    max_scaled = (money_max + inst.total_demand) * scale
    dtype: object = np.int64 if max_scaled < 2**62 else object
    size, K = grid.size, grid.K
    step_money = K * scale  # scaled money one grid step adds
    demands = [inst.demand(j) * scale for j in range(inst.n, 0, -1)]
    ramp = np.arange(size, dtype=dtype)
    index = np.arange(size, dtype=np.int64)
    rows: List[np.ndarray] = [None] * (inst.m + 1)  # type: ignore[list-item]
    choices: List[np.ndarray] = [None] * inst.m  # type: ignore[list-item]
    rows[inst.m] = np.zeros(size, dtype=dtype)
    curves = 0
    for i in range(inst.m, 0, -1):
        facility = inst.facilities[i - 1]
        open_money = facility.open_cost * scale
        q_open = -(-facility.open_cost // K)  # first offset paying open_cost
        # clients right to left: (scaled demand, cost from facility i)
        links = list(zip(demands, [inst.cost(i, j)
                                   for j in range(inst.n, 0, -1)]))
        prev = rows[i]
        row = np.full(size, -1, dtype=dtype)
        choice = np.zeros(size, dtype=np.int64)
        tails: List[Optional[Tuple[int, int]]] = [None] * size
        slopes: Dict[int, np.ndarray] = {}  # rate r -> ramp * (K*scale // r)
        # prev is nondecreasing; only the first offset of each run of
        # equal values can win (see the module docstring)
        starts = np.concatenate(([0], np.flatnonzero(prev[1:] != prev[:-1])
                                 + 1))
        curves += len(starts)
        for t, met in zip(starts.tolist(), prev[starts].tolist()):
            width = size - t
            # walk the clients right to left past the demand already
            # met; each one facility i reaches adds a linear segment
            lo, spent, served = q_open, 0, 0
            left, cap = met, facility.capacity * scale
            for demand, c in links:
                if lo >= width:
                    break
                if left >= demand:
                    left -= demand
                    continue
                residual, left = demand - left, 0
                if cap <= 0 or is_inf(c):
                    break
                amt = min(residual, cap)
                if c > 0:
                    hi = -(-(open_money + spent + c * amt) // step_money)
                    end = min(hi, width)
                    if lo < end:
                        e0 = lo * step_money - open_money - spent
                        if e0 % c or (end - lo > 1 and step_money % c):
                            raise _ScaleError
                        if c not in slopes:
                            slopes[c] = ramp * (step_money // c)
                        cand = slopes[c][:end - lo] + (met + served + e0 // c)
                        _offer(row, choice, t + lo, t + end, cand, t)
                    lo = hi
                    spent += c * amt
                served += amt
                cap -= amt
                if amt < residual:
                    break
            if lo < width:  # saturated from t + lo on: record the start
                tail = tails[t + lo]
                if tail is None or met + served > tail[0]:
                    tails[t + lo] = (met + served, t)
        if q_open > 0:
            # pre-open: prev[s] from the smallest offset t in
            # (s - q_open, s] with prev[t] = prev[s]
            run_start = np.zeros(size, dtype=np.int64)
            run_start[starts] = starts
            np.maximum.accumulate(run_start, out=run_start)
            _merge(row, choice, prev,
                   np.maximum(run_start, index - (q_open - 1)))
        _merge_tails(row, choice, tails)
        rows[i - 1] = row
        choices[i - 1] = choice
    return ValueTable(grid, scale, rows, choices, curves)


@dataclass(frozen=True)
class FptasResult:
    solution: Solution
    grid_budget: int      # smallest grid budget covering all demand
    bound: int            # B
    grid: BudgetGrid
    table: ValueTable


def run_fptas(inst: Instance, eps: Rational) -> FptasResult:
    """Full FPTAS pipeline, returning the table diagnostics as well."""
    demand = inst.total_demand
    B = find_budget_bound(inst)
    grid = BudgetGrid.for_instance(inst.m, B, eps)
    table = build_value_table(inst, grid)
    target = demand * table.scale
    top = table.rows[0]
    hits = np.nonzero(top >= target)[0]
    if len(hits) == 0:
        raise Infeasible("no feasible solution within the budget grid")
    budget = int(hits[0]) * grid.K

    open_facilities = set()
    entries: Dict[Tuple[int, int], Amount] = {}
    transport: Amount = Fraction(0)
    b = budget
    for i in range(1, inst.m + 1):
        bp = table.choice(i, b)
        d_met = table.value(i + 1, bp)
        total, served = serve_schedule(inst, i, d_met, b - bp)
        if total > 0:
            open_facilities.add(i)
            for j, amount in served:  # each client at most once per i
                demand = inst.demand(j)
                entries[shared((i, j))] = (FULL if amount == demand
                                         else Fraction(amount, demand))
                transport += inst.cost(i, j) * amount
        b = bp
    opening = sum(inst.facilities[i - 1].open_cost for i in open_facilities)
    solution = Solution(open_facilities, Flow(entries, transport),
                        opening + transport)
    return FptasResult(solution, budget, B, grid, table)


def solve_fptas(inst: Instance, eps: Rational) -> Solution:
    """Feasible solution with cost at most (1+eps) times the optimum."""
    return run_fptas(inst, eps).solution
