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
up to its capacity.  Every curve of the level is a walk of one
``kernel.ServeFamily`` over all clients, and one ``sweep`` gives, for
every run start t (see below) and every position p of the family, the
demand served and the money spent (over S) once the walk has passed
p.  With edge(p) = ceil((open_cost*S + money before p) / (K*S)), the
first q whose budget covers the opening and everything before p, each
curve splits into at most n+2 index ranges of q, each one line over
the grid index s = t + q:

* pre-open, q < edge(0): nothing is served, a line of slope 0 at
  prev[t];
* one linear segment [edge(p), edge(p + 1)) per position p at a
  positive rate c that the walk serves, where the served demand, over
  unit, is A + extra(q) * L_i / c.  extra(q) is the money (over S)
  spent past the money before p, so
  extra(q) = q*K*S - open_cost*S - money_p.  At grid index s the offer
  is the line intercept + s * slope_c, with slope_c = K*S*(L_i / c)
  shared by every segment of rate c in the level;
* the saturated tail from the last edge on, where served demand is a
  constant: a line of slope 0.  Free (zero-cost) clients, and the
  positions the walk does not serve, have empty index ranges.

The run starts go through the sweep in blocks.  numpy forms every
(start, position) edge and packed intercept (below) of a block; one
Python loop per run start keeps the segments that are not empty and
start inside the grid, edge(p) < size - t.

Row i is the lexicographic max over (value, -t) of all these offers: a
larger value wins, and equal values keep the smallest carry-over t.
Each offer is packed into one integer, value * W + (W - 1 - t) with W a
power of two above every t, so that max is a plain integer max, and the
order of the offers does not matter.  Lines of one slope are parallel,
so at each index the best of them is the one with the largest packed
intercept; the tag in the low bits carries the tie-break.  Each slope
is one row of an offline range max over its lines' index ranges (a
sparse table of power-of-two blocks, filled level by level), and adds
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
from itertools import chain
from typing import Dict, List, Tuple, Union

import numpy as np

from .exact import Solution
from .kernel import Amount, ServeCurve, serve_family, serve_schedule
from .model import Infeasible, Instance, is_inf

Rational = Union[int, float, str, Fraction]

# run starts whose curves the fill walks at once
_BLOCK = 256


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


def demand_met(inst: Instance, i: int, met: int, scale: int, ell: int,
               ) -> Tuple[int, int]:
    """One step of the bound recurrence: the demand facilities i..m
    meet after i+1..m met ``met`` (over ``scale``), as (met, scale) in
    lowest terms.  Facility i adds nothing unless ell covers its opening
    cost, and then serves right to left on the money left."""
    money = ell - inst.facilities[i - 1].open_cost
    if money < 0:
        return met, scale
    family = serve_family(inst, i)
    served = ServeCurve(family, met, scale).served(money * scale)
    met, scale = met * family.lcm + served, scale * family.lcm
    g = math.gcd(met, scale)
    return met // g, scale // g


def max_contribution_feasible(inst: Instance, ell: int,
                              ) -> Tuple[bool, Dict[int, Amount]]:
    """Can every facility contribute at most ell to the total cost?

    Runs the right-to-left bound recurrence, one ``demand_met`` step per
    facility; returns the feasibility flag and the per-facility
    cumulative values (index m+1 down to 1).
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    met, scale = 0, 1  # the demand met so far, over its smallest scale
    values: Dict[int, Amount] = {inst.m + 1: Fraction(0)}
    for i in range(inst.m, 0, -1):
        met, scale = demand_met(inst, i, met, scale, ell)
        values[i] = Fraction(met, scale)
    return met >= inst.total_demand * scale, values


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
               floor, dtype: object) -> np.ndarray:
    """Per row r and index s < size, the largest keys[k] over the
    intervals [lo[k], hi[k]) that hold r * size + s, and ``floor[r]``
    where none does: the rows are laid end to end, and no interval
    crosses a row's end.  A scalar ``floor`` is one row, and the result
    is then 1-D.

    Offline over a sparse table: an interval of length L, 2**k <= L <
    2**(k+1), is the union of the two blocks of length 2**k that start
    at lo and at hi - 2**k.  Level k of the table holds the largest key
    of the blocks of length 2**k at each start.  The levels are filled
    top-down in one array: a block of level k + 1 is the union of the
    blocks of length 2**k at its start and 2**k on, so level k is level
    k + 1 with each value also pushed 2**k on (one shifted max, which
    numpy buffers where its operands overlap), and then its own keys
    scattered.  Only one level and that buffer are live at a time.
    """
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo)), exact
    order = np.argsort(level, kind="stable")
    level, lo, hi, keys = level[order], lo[order], hi[order], keys[order]
    top = int(level[-1])
    bounds = np.searchsorted(level, np.arange(top + 2)).tolist()
    table = np.full(np.shape(floor) + (size,),
                    np.reshape(floor, np.shape(floor) + (1,) * np.ndim(floor)),
                    dtype=dtype)
    flat = table.reshape(-1)  # a view: the rows end to end
    for k in range(top, -1, -1):
        if k < top:  # level k + 1 into its second halves
            np.maximum(table[..., 1 << k:], table[..., :-(1 << k)],
                       out=table[..., 1 << k:])
        a, b = bounds[k], bounds[k + 1]
        if a < b:
            np.maximum.at(flat, lo[a:b], keys[a:b])
            np.maximum.at(flat, hi[a:b] - (1 << k), keys[a:b])
    return table


def build_value_table(inst: Instance, grid: BudgetGrid) -> ValueTable:
    """Fill the rounded recurrence bottom-up from the last facility.

    Ties in the maximization break toward the smallest carry-over
    budget b'.

    Every offer at grid index s is one packed key,
    value * W + (W - 1 - t), with W = 2**bits the smallest power of two
    above the largest carry-over index size - 1, so an integer max is
    the lexicographic max over (value, -t).  ``ServeFamily.sweep``
    gives the served demand and the money spent after every position,
    for a block of run starts t at once; position p's segment is
    the offsets q from edge(p) up to edge(p + 1) (see the module
    docstring), and the nonempty ones that start inside the grid are
    lines.  The lines are grouped by slope, one row per slope of one
    ``_range_max``, and each row adds s * slope * W (the pre-open
    ranges and the saturated tails are the slope-0 lines).  The row and
    the backpointers are unpacked once per level.

    Only the first carry-over of each run of equal values in the row
    below offers anything: a later one of the same run walks the same
    curve one grid step later, so it never wins.  ``curves`` counts the
    curves the fill walked.

    Level i reads the row below over its scale S and writes over
    unit = S * cost_lcm(row i): met demand and money stay over S, and a
    partial serve e0 * lcm // c is exact.  The row and its scale are
    then reduced by their gcd.

    dtypes, each from the level's measured maxima.  The walk (the sweep
    and the edges) is int64 when the family's demand and its money plus
    the opening and one grid step, all over S, are below 2**63.  The keys
    are formed in int64 when lcm times the larger of the demand and
    size*K*S + open_cost*S + money, plus one, times W is below 2**63, and
    as Python ints in an object array otherwise: a key's intercept
    subtracts lcm // c times t*K*S + open_cost*S + money_p.  top is the
    largest, over the slopes, of -min(keys) and
    max(keys, 0) + ((size - 1) * slope + 1) * W.  It bounds every value
    the level forms from the keys on: the keys, the floor
    -((size - 1) * slope + 1) * W, each s * slope * W, and
    best + s * slope * W, which runs from the floor up to the largest
    key plus (size - 1) * slope * W.  The range max and the unpacking
    are int64 when top < 2**63, object arrays of Python ints otherwise;
    both dtypes run the same code.
    """
    size, K = grid.size, grid.K
    bits = (size - 1).bit_length()
    W = 1 << bits  # carry-over tags W - 1 - t lie in [0, W)
    rows: List[np.ndarray] = [None] * (inst.m + 1)  # type: ignore[list-item]
    choices: List[np.ndarray] = [None] * inst.m  # type: ignore[list-item]
    scales = [1] * (inst.m + 1)
    rows[inst.m] = np.zeros(size, dtype=np.int64)
    curves = 0
    for i in range(inst.m, 0, -1):
        scale = scales[i]  # of the row below, and of met demand and money
        family = serve_family(inst, i)
        lcm = family.lcm
        unit = scale * lcm  # of this level's values
        step_money = K * scale  # scaled money one grid step adds
        open_money = inst.facilities[i - 1].open_cost * scale
        q_open = -(-open_money // step_money)  # first offset paying it
        prev = rows[i]
        # slope -> first indices, end indices and packed intercepts of
        # its lines; the slope-0 lines are the pre-open ranges and tails
        lines: Dict[int, Tuple[List[int], List[int], List[int]]] = (
            defaultdict(lambda: ([], [], [])))
        # prev is nondecreasing; only the first offset of each run of
        # equal values can win (see the module docstring)
        starts = np.concatenate(([0], np.flatnonzero(prev[1:] != prev[:-1])
                                 + 1))
        curves += len(starts)
        # every value the walk and the edges form is below these
        walk = (np.int64 if max(open_money + family.money[-1] * scale
                                + step_money, family.before[-1] * scale)
                < 2**63 else object)
        # every key formed is below this in magnitude
        limit = lcm * max(family.before[-1] * scale, size * step_money
                          + open_money + family.money[-1] * scale)
        key_dtype = np.int64 if (limit + 1) * W < 2**63 else object
        # per position: the slope of its segments, 0 where c is 0 or inf
        position_slopes = [step_money * ratio for ratio in family.ratios]
        ratio_row = np.array(family.ratios, dtype=key_dtype)
        if q_open > 0:  # nothing is served before the opening is paid
            lines[0] = (starts.tolist(),
                        np.minimum(starts + min(q_open, size), size).tolist(),
                        (prev[starts].astype(key_dtype) * lcm * W
                         + (W - 1 - starts)).tolist())
        # the run starts in blocks, so that the starts x positions arrays
        # stay small whatever the grid
        for block in range(0, len(starts), _BLOCK):
            part = starts[block:block + _BLOCK]
            met = prev[part].astype(walk)
            served, spent = family.sweep(met, scale, walk)
            # edges[:, k]: the first offset whose money covers the opening
            # and the first k positions; position k's segment is the
            # offsets edges[:, k] .. edges[:, k + 1], empty at a zero
            # cost or no residual
            edges = (spent + (open_money + step_money - 1)) // step_money
            met = met.astype(key_dtype)[:, None]
            tags = (W - 1 - part)[:, None]
            # the packed intercept of each position's segment, and of
            # the saturated tail
            keys = ((met + served[:, :-1]) * lcm
                    - (part.astype(key_dtype)[:, None] * step_money
                       + open_money + spent[:, :-1]) * ratio_row) * W
            keys += tags
            tails = (met + served[:, -1:]) * lcm * W + tags
            del served, spent
            # The segments kept, nonempty and starting inside the grid,
            # are picked per run start in Python.  Picked with numpy too,
            # the per-level numpy calls dominate small grids: the solve
            # time then grows about 3-fold from eps = 1/10 to 1/100 on
            # the criterion-8 instances (tests/test_acceptance.py asks 5-
            # to 20-fold, for a grid about 7 times the size).
            for t, edge, row_keys, (tail,) in zip(
                    part.tolist(), edges.tolist(), keys.tolist(),
                    tails.tolist()):
                width = size - t
                lo = edge[0]  # q_open
                for slope, hi, key in zip(position_slopes, edge[1:],
                                          row_keys):
                    if lo >= width:
                        break
                    if lo < hi:
                        firsts, ends, slope_keys = lines[slope]
                        firsts.append(t + lo)
                        ends.append(t + hi if hi < width else size)
                        slope_keys.append(key)
                        lo = hi
                if lo < width:  # saturated from t + lo on
                    firsts, ends, slope_keys = lines[0]
                    firsts.append(t + lo)
                    ends.append(size)
                    slope_keys.append(tail)
            del edges, keys, tails
        slopes = list(lines)
        top = max(max(-min(keys), max(max(keys), 0)
                      + ((size - 1) * slope + 1) * W)
                  for slope, (_, _, keys) in lines.items())
        dtype: object = np.int64 if top < 2**63 else object
        # one table row per slope: row r's index s is r * size + s
        counts = [len(keys) for _, _, keys in lines.values()]
        offset = np.repeat(np.arange(0, len(slopes) * size, size), counts)
        firsts, ends = (np.fromiter(chain.from_iterable(
            lines[slope][field] for slope in slopes), np.int64, sum(counts))
            + offset for field in (0, 1))
        keys = np.array(list(chain.from_iterable(
            lines[slope][2] for slope in slopes)), dtype=dtype)
        del lines, offset
        best = _range_max(size, firsts, ends, keys,
                          np.array([-(slope * (size - 1) * W + W)
                                    for slope in slopes], dtype=dtype),
                          dtype)
        del firsts, ends, keys
        if size > 1:  # s * slope * W, which top bounds from s = 1 on
            best += (np.array([slope * W for slope in slopes], dtype=dtype)
                     [:, None] * np.arange(size, dtype=dtype))
        key = best.max(axis=0)  # every index holds an offer of start 0
        del best
        row = key >> bits
        choice = ((W - 1) - (key & (W - 1))).astype(np.int64)
        # an all-zero row gives g = unit, which need not fit int64
        g = math.gcd(unit, int(np.gcd.reduce(row)))
        if row.any():
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
