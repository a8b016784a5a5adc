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
ranges of q, each one line over the grid index s = t + q:

* pre-open, q*K < open_cost: nothing is served, a line of slope 0 at
  prev[t];
* one linear segment [lo, hi) per breakpoint pair at a positive rate
  c, where the served demand, over unit, is A + extra(q) * L_i / c.
  extra(q) is the money (over S) spent past the segment's breakpoint,
  so extra(q) = q*K*S - open_cost*S - money_k.  At grid index s the
  offer is the line intercept + s * slope_c, with slope_c =
  K*S*(L_i / c) shared by every segment of rate c in the level;
* the saturated tail past the last breakpoint, where served demand is
  a constant A_L: a line of slope 0.  Free (zero-cost) clients have
  empty index ranges and only add to the next segment's A.

Row i is the lexicographic max over (value, -t) of all these offers: a
larger value wins, and equal values keep the smallest carry-over t.
Each offer is packed into one integer, value * W + (W - 1 - t) with W a
power of two above every t, so that max is a plain integer max, and the
order of the offers does not matter.  Lines of one slope are parallel,
so at each index the best of them is the one with the largest packed
intercept; the tag in the low bits carries the tie-break.  The walk
over the curves' breakpoints only records (index range, packed
intercept) per slope.  Each slope then takes one offline range max over
its ranges (a sparse table of power-of-two blocks) and adds
s * slope_c * W.  The row and its backpointers are unpacked once per
level.

The fill's one dominance rule: only the first t of each run of equal
values in prev is walked.  If prev[t] = prev[t - 1], both offsets walk
the same serve curve f, so the offer of t at s, prev[t] + f(s - t), is
at most that of t - 1, prev[t] + f(s - t + 1) (f is nondecreasing), and
t - 1 wins ties.  The pre-open offers are part of f (f(q) = 0 before
the opening is paid), so the rule covers them too.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple, Union

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
    size: int  # number of grid points, endpoint = (size-1)*K

    @classmethod
    def for_instance(cls, m: int, B: int, eps: Rational) -> "BudgetGrid":
        if B < 1 or m < 1:
            raise ValueError("B and m must be positive")
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        K = max(1, math.ceil(eps * B / (m * (m + 1))))
        return cls(K, math.ceil(B / K) + m + 1)

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


def find_min_contribution(inst: Instance) -> int:
    """Smallest integer ell admitting a solution where every open
    facility contributes at most ell; raises Infeasible if none."""
    hi = max(serve_everything_costs(inst))
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


def _range_max(size: int, lo: np.ndarray, hi: np.ndarray, keys: np.ndarray,
               floor: int, dtype: object) -> np.ndarray:
    """Per index s < size, the largest keys[k] over the intervals
    [lo[k], hi[k]) that hold s, and ``floor`` where none does.

    Offline over a sparse table: an interval of length L, 2**k <= L <
    2**(k+1), is the union of the two blocks of length 2**k that start
    at lo and at hi - 2**k.  Level k of the table holds the largest key
    of the blocks of length 2**k at each start; each level is then
    pushed down into the two halves of its blocks.
    """
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo)), exact
    table = np.full((int(level.max()) + 1, size), floor, dtype=dtype)
    np.maximum.at(table, (level, lo), keys)
    np.maximum.at(table, (level, hi - (1 << level)), keys)
    for k in range(len(table) - 1, 0, -1):
        half = 1 << (k - 1)
        np.maximum(table[k - 1], table[k], out=table[k - 1])
        np.maximum(table[k - 1, half:], table[k, :-half],
                   out=table[k - 1, half:])
    return table[0]


def build_value_table(inst: Instance, grid: BudgetGrid) -> ValueTable:
    """Fill the rounded recurrence bottom-up from the last facility.

    Ties in the maximization break toward the smallest carry-over
    budget b'.

    Every offer at grid index s is one packed key,
    value * W + (W - 1 - t), with W = 2**bits the smallest power of two
    above the largest carry-over index size - 1, so an integer max is
    the lexicographic max over (value, -t).  The walk over each
    ``ServeCurve``'s breakpoints records (index range, packed
    intercept) per slope and makes no numpy call; each slope then takes
    one ``_range_max`` over its ranges and adds s * slope * W (the
    pre-open ranges and the saturated tails are the slope-0 lines).
    The row and the backpointers are unpacked once per level.

    Only the first carry-over of each run of equal values in the row
    below offers anything: a later one of the same run walks the same
    curve one grid step later, so it never wins.  ``curves`` counts the
    curves the fill walked.

    Level i reads the row below over its scale S and writes over
    unit = S * cost_lcm(row i): met demand and money stay over S, and a
    partial serve e0 * lcm // c is exact.  The row and its scale are
    then reduced by their gcd.

    dtype.  top is the largest, over the slopes, of -min(keys) and
    max(keys, 0) + ((size - 1) * slope + 1) * W.  It bounds every value
    the level forms: the keys, the floor -((size - 1) * slope + 1) * W,
    each s * slope * W, and best + s * slope * W, which runs from the
    floor up to the largest key plus (size - 1) * slope * W.  A level is
    int64 when top < 2**63, object arrays of Python ints otherwise; both
    dtypes run the same code.
    """
    size, K = grid.size, grid.K
    bits = (size - 1).bit_length()
    W = 1 << bits  # carry-over tags W - 1 - t lie in [0, W)
    clients = range(1, inst.n + 1)
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
        step_money = K * scale  # scaled money one grid step adds
        open_money = facility.open_cost * scale
        q_open = -(-facility.open_cost // K)  # first offset paying open_cost
        prev = rows[i]
        # rate c -> (lcm // c, slope_c); the slope-0 lines are the
        # pre-open ranges and the tails
        rates = {c: (lcm // c, step_money * (lcm // c))
                 for c in set(inst.costs[i - 1]) if not is_inf(c) and c > 0}
        # slope -> first indices, end indices and packed intercepts of
        # its lines
        lines: Dict[int, Tuple[List[int], List[int], List[int]]] = (
            defaultdict(lambda: ([], [], [])))
        # prev is nondecreasing; only the first offset of each run of
        # equal values can win (see the module docstring)
        starts = np.concatenate(([0], np.flatnonzero(prev[1:] != prev[:-1])
                                 + 1))
        curves += len(starts)
        offsets, mets = starts.tolist(), prev[starts].tolist()
        if q_open > 0:  # nothing is served before the opening is paid
            lines[0] = (starts.tolist(),
                        np.minimum(starts + min(q_open, size), size).tolist(),
                        [met * lcm * W + W - 1 - t
                         for t, met in zip(offsets, mets)])
        for t, met in zip(offsets, mets):
            width = size - t
            curve = ServeCurve(inst, i, clients, met, scale, lcm)
            base = met * lcm  # demand met below, over this level's unit
            tag = W - 1 - t
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
                    if lo < hi:
                        ratio, slope = rates[c]
                        firsts, ends, keys = lines[slope]
                        firsts.append(t + lo)
                        ends.append(t + hi if hi < width else size)
                        keys.append((base + amount - t * slope
                                     - (open_money + spent) * ratio) * W
                                    + tag)
                    lo = hi
            if lo < width:  # saturated from t + lo on
                firsts, ends, keys = lines[0]
                firsts.append(t + lo)
                ends.append(size)
                keys.append((base + curve.amount[-1]) * W + tag)
        top = max(max(-min(keys), max(max(keys), 0)
                      + ((size - 1) * slope + 1) * W)
                  for slope, (_, _, keys) in lines.items())
        dtype: object = np.int64 if top < 2**63 else object
        key = np.full(size, -1, dtype=dtype)
        ramp = np.arange(size, dtype=dtype)
        for slope, (firsts, ends, keys) in lines.items():
            best = _range_max(size, np.array(firsts), np.array(ends),
                              np.array(keys, dtype=dtype),
                              -(slope * (size - 1) * W + W), dtype)
            np.maximum(key, best + ramp * (slope * W), out=key)
        row = key >> bits
        choice = ((W - 1) - (key & (W - 1))).astype(np.int64)
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
