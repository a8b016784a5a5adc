"""Budget-grid approximation scheme for non-polynomial demands.

Three pieces: a per-facility contribution bound found by binary search,
the rounded value-function table over budgets restricted to multiples of
K, and (1+eps) solution extraction by backpointer replay.

Each level of the table is stored as integers over its own scale.
Every value the recurrence produces is a rational demand, and each
facility level adds at most one division, by one cost of its own row
(the budget-limited partial client).  So level i reads the row below,
over its scale S, and writes its values over unit = S * L_i, with L_i
the lcm of row i's finite costs above 1 (``kernel.cost_lcm``): every
partial serve e * L_i / c is then a whole number.  The row and its
scale are then divided by their gcd, which leaves the smallest scale
that keeps the row whole.  Values within one row share one scale, so
the comparisons that pick each value and backpointer are the same as
in exact rational arithmetic.  numpy int64 is used for a level when its
scaled magnitudes fit, and object arrays of Python ints otherwise.

Table fill.  Row i at grid index s is the best, over carry-over
offsets t <= s, of prev[t] (the demand facilities i+1..m meet within
t*K) plus the demand facility i serves by spending q*K, q = s - t.  For
fixed (i, t) that serve curve is piecewise linear in q, with one piece
per client facility i reaches after prev[t] is taken from the right,
up to its capacity: a ``kernel.ServeCurve`` over all clients, whose
breakpoints are Python ints.  The curve splits into at most n+2 index
ranges of q:

* pre-open, q*K < open_cost: nothing is served;
* one linear segment [lo, hi) per breakpoint pair at a positive rate
  r, where the served demand, over unit, is A + extra(q) * L_i / r.
  extra(q) is the money (over S) spent past the segment's breakpoint,
  so extra(q) = e0 + (q - lo)*K*S with e0 = extra(lo).  The segment is
  written as one strided slice (arange * step + const, with arange *
  step built once per rate and level) and merged into the row where it
  is larger;
* the saturated tail past the last breakpoint, where served demand is
  a constant A_L.  Free (zero-cost) clients have empty index ranges and
  only add to the next segment's A.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .exact import Solution
from .kernel import (Amount, ServeCurve, cost_lcm, demand_met,
                     serve_schedule)
from .model import Infeasible, Instance, is_inf

Rational = Union[int, float, str, Fraction]


@dataclass(frozen=True)
class BudgetGrid:
    """Budgets restricted to multiples of K, from 0 to (ceil(B/K)+m)K.

    K = max(1, ceil(eps*B / (m(m+1)))).
    """

    K: int
    B: int
    m: int
    size: int  # number of grid points, endpoint = (size-1)*K

    @classmethod
    def for_instance(cls, m: int, B: int, eps: Rational) -> "BudgetGrid":
        if B < 1 or m < 1:
            raise ValueError("B and m must be positive")
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        K = max(1, math.ceil(eps * B / (m * (m + 1))))
        return cls(K, B, m, math.ceil(B / K) + m + 1)

    @property
    def points(self) -> List[int]:
        return [t * self.K for t in range(self.size)]

    def round_up(self, x) -> int:
        """x rounded up to the nearest multiple of K."""
        return math.ceil(Fraction(x) / self.K) * self.K

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


def serve_everything_costs(inst: Instance) -> List[int]:
    """Per facility, its opening cost plus the cost of serving all the
    demand of every client it reaches at a finite cost."""
    demands = [c.demand for c in inst.clients]
    return [f.open_cost + sum(c * d for c, d in zip(row, demands)
                              if not is_inf(c))
            for f, row in zip(inst.facilities, inst.costs)]


def contribution_search_limit(inst: Instance) -> int:
    """Upper end of the binary-search range for the contribution cap."""
    return max(serve_everything_costs(inst))


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


@dataclass
class ValueTable:
    """Rounded value functions over the budget grid, with backpointers.

    rows[i-1][t] is the maximum demand facilities i..m can meet within
    budget t*K, as an integer over ``scales[i-1]``, the smallest scale
    that keeps the whole row integral; rows[m] is the all-zero base
    level.  choices[i-1][t] is the grid index of the maximizing
    carry-over budget b'.
    """

    grid: BudgetGrid
    scales: List[int]
    rows: List[np.ndarray]
    choices: List[np.ndarray]
    curves: int = 0  # (facility, carry-over) serve curves the fill walked

    @property
    def scale(self) -> int:
        """The scale of the top row, rows[0]."""
        return self.scales[0]

    def value(self, i: int, b: int) -> Fraction:
        return Fraction(int(self.rows[i - 1][self.grid.index(b)]),
                        self.scales[i - 1])

    def choice(self, i: int, b: int) -> int:
        return int(self.choices[i - 1][self.grid.index(b)]) * self.grid.K


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


def build_value_table(inst: Instance, grid: BudgetGrid) -> ValueTable:
    """Fill the rounded recurrence bottom-up from the last facility.

    Ties in the maximization break toward the smallest carry-over
    budget b'.

    Each (facility, carry-over budget) ``ServeCurve`` is evaluated one
    segment at a time: one strided slice per linear piece, and a
    saturated tail that is deferred to a per-row running max (see the
    module docstring).  The pre-open ranges of all carry-overs are one
    vectorised offer per row.  Deferred tails and pre-open ranges merge
    under the lexicographic max over (value, -t), which keeps the
    tie-break toward the smallest carry-over budget.

    Only the first carry-over of each run of equal values in the row
    below builds a serve curve: a later one of the same run walks the
    same curve one grid step later, so it never wins.  ``curves``
    counts the curves the fill walked.

    Level i reads the row below over its scale S and writes over
    unit = S * cost_lcm(row i): met demand and money stay over S, and a
    partial serve e0 * lcm // c is exact.  The row and its scale are
    then reduced by their gcd.  A level is int64 when its largest scaled
    magnitude, (money_max + total demand) * unit, fits.
    """
    size, K = grid.size, grid.K
    # headroom for scaled money values: serve-everything cost can exceed
    # the grid endpoint, so bound by whichever is larger
    money_max = max((size - 1) * K, contribution_search_limit(inst))
    headroom = money_max + inst.total_demand
    clients = range(1, inst.n + 1)
    index = np.arange(size, dtype=np.int64)
    rows: List[np.ndarray] = [None] * (inst.m + 1)  # type: ignore[list-item]
    choices: List[np.ndarray] = [None] * inst.m  # type: ignore[list-item]
    scales = [1] * (inst.m + 1)
    rows[inst.m] = np.zeros(size, dtype=np.int64)
    curves = 0
    for i in range(inst.m, 0, -1):
        facility = inst.facilities[i - 1]
        scale = scales[i]  # of the row below, and of met demand and money
        lcm = cost_lcm(inst.costs[i - 1])
        unit = scale * lcm  # of this level's values
        dtype: object = np.int64 if headroom * unit < 2**62 else object
        step_money = K * scale  # scaled money one grid step adds
        open_money = facility.open_cost * scale
        q_open = -(-facility.open_cost // K)  # first offset paying open_cost
        prev = rows[i]
        ramp = np.arange(size, dtype=dtype)
        row = np.full(size, -1, dtype=dtype)
        choice = np.zeros(size, dtype=np.int64)
        tails: List[Optional[Tuple[int, int]]] = [None] * size
        slopes: Dict[int, np.ndarray] = {}  # rate c -> ramp * (K*unit // c)
        # prev is nondecreasing; only the first offset of each run of
        # equal values can win (see the module docstring)
        starts = np.concatenate(([0], np.flatnonzero(prev[1:] != prev[:-1])
                                 + 1))
        curves += len(starts)
        for t, met in zip(starts.tolist(), prev[starts].tolist()):
            width = size - t
            curve = ServeCurve(inst, i, clients, met, scale, lcm)
            base = met * lcm  # demand met below, over this level's unit
            # each breakpoint pair at a positive rate is one linear
            # segment; a zero-cost client has an empty index range
            lo = q_open
            for (_, c), spent, money, amount in zip(
                    curve.clients, curve.money, curve.money[1:],
                    curve.amount):
                if lo >= width:
                    break
                if c > 0:
                    hi = -(-(open_money + money) // step_money)
                    end = hi if hi < width else width
                    if lo < end:
                        e0 = lo * step_money - open_money - spent
                        if c not in slopes:
                            slopes[c] = ramp * (step_money * lcm // c)
                        cand = slopes[c][:end - lo] + (
                            base + amount + e0 * lcm // c)
                        # a strictly larger value wins: an equal one
                        # keeps its earlier, smaller t
                        seg = row[t + lo:t + end]
                        better = cand > seg
                        np.copyto(seg, cand, where=better)
                        np.copyto(choice[t + lo:t + end], t, where=better)
                    lo = hi
            if lo < width:  # saturated from t + lo on: record the start
                value = base + curve.amount[-1]
                tail = tails[t + lo]
                if tail is None or value > tail[0]:
                    tails[t + lo] = (value, t)
        if q_open > 0:
            # pre-open: prev[s] from the smallest offset t in
            # (s - q_open, s] with prev[t] = prev[s]
            run_start = np.zeros(size, dtype=np.int64)
            run_start[starts] = starts
            np.maximum.accumulate(run_start, out=run_start)
            _merge(row, choice, prev.astype(dtype) * lcm,
                   np.maximum(run_start, index - (q_open - 1)))
        _merge_tails(row, choice, tails)
        g = math.gcd(unit, int(np.gcd.reduce(row)))
        row //= g
        rows[i - 1], choices[i - 1], scales[i - 1] = row, choice, unit // g
    return ValueTable(grid, scales, rows, choices, curves)


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

    served: List[Tuple[int, int, Amount]] = []
    b = budget
    for i in range(1, inst.m + 1):
        bp = table.choice(i, b)
        _, schedule = serve_schedule(inst, i, table.value(i + 1, bp), b - bp)
        served += [(i, j, amount) for j, amount in schedule]
        b = bp
    solution = Solution.from_served(inst, served)
    return FptasResult(solution, budget, B, grid, table)


def solve_fptas(inst: Instance, eps: Rational) -> Solution:
    """Feasible solution with cost at most (1+eps) times the optimum."""
    return run_fptas(inst, eps).solution
