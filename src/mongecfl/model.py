"""Problem instances and Monge-property verification.

Costs are nonnegative integers or INF.  All arithmetic on costs is
"extended": adding INF to anything yields INF, and INF compares greater
than every finite value (INF <= INF holds).  Python's ``math.inf``
already behaves this way for addition and comparison, so we use it as
the infinity sentinel and only have to be careful never to multiply it
by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

INF = math.inf

#: A transport cost: a nonnegative int, or INF.
Cost = Union[int, float]


class Infeasible(Exception):
    """The instance admits no solution serving all demand."""


def is_inf(c: Cost) -> bool:
    return c == INF


@dataclass(frozen=True, slots=True)
class Facility:
    open_cost: int   # one-time cost to open
    capacity: int    # units of demand it can absorb

    def __post_init__(self):
        if self.open_cost < 0:
            raise ValueError("open_cost must be >= 0")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")


@dataclass(frozen=True, slots=True)
class Client:
    demand: int
    release: Optional[int] = None   # first facility index that may serve it
    deadline: Optional[int] = None  # last facility index that may serve it


@dataclass(frozen=True, slots=True)
class MongeWitness:
    """A quadruple violating c[h][j] + c[i][k] <= c[h][k] + c[i][j].

    Indices are 1-based, with h < i (facilities) and j < k (clients).
    """

    h: int
    i: int
    j: int
    k: int
    lhs: Cost
    rhs: Cost


@dataclass(frozen=True)
class Instance:
    """A capacitated facility location instance.

    Facilities and clients are 1-based by position in their lists; the
    cost matrix is m x n with costs[i-1][j-1] the per-unit cost of
    serving client j from facility i.
    """

    facilities: tuple
    clients: tuple
    costs: tuple  # tuple of m row-tuples of Cost

    def __init__(self, facilities: Sequence[Facility], clients: Sequence[Client],
                 costs: Sequence[Sequence[Cost]]):
        object.__setattr__(self, "facilities", tuple(facilities))
        object.__setattr__(self, "clients", tuple(clients))
        object.__setattr__(self, "costs", tuple(tuple(row) for row in costs))

    @property
    def m(self) -> int:
        return len(self.facilities)

    @property
    def n(self) -> int:
        return len(self.clients)

    def cost(self, i: int, j: int) -> Cost:
        """Per-unit cost of serving client j from facility i (1-based)."""
        return self.costs[i - 1][j - 1]

    def demand(self, j: int) -> int:
        return self.clients[j - 1].demand

    @property
    def total_demand(self) -> int:
        return sum(c.demand for c in self.clients)

    @property
    def total_capacity(self) -> int:
        return sum(f.capacity for f in self.facilities)


def validate_instance(inst: Instance) -> List[str]:
    """Collect every invariant violation; an empty list means valid.

    A capacity shortfall (sum U_i < sum d_j) is reported as a warning
    string, not an error: solvers detect infeasibility themselves and
    return infinite cost.
    """
    report: List[str] = []
    if inst.m < 1:
        report.append("at least one facility required")
    if inst.n < 1:
        report.append("at least one client required")
    for i, f in enumerate(inst.facilities, start=1):
        if f.open_cost < 0:
            report.append(f"facility {i}: open cost must be nonnegative")
        if f.capacity < 1:
            report.append(f"facility {i}: capacity must be positive")
    for j, c in enumerate(inst.clients, start=1):
        if c.demand < 1:
            report.append(f"client {j}: demand must be positive")
        if c.release is not None and c.deadline is not None and c.release > c.deadline:
            report.append(f"client {j}: release after deadline")
    if len(inst.costs) != inst.m:
        report.append(f"dimension mismatch: {len(inst.costs)} cost rows for {inst.m} facilities")
    for i, row in enumerate(inst.costs, start=1):
        if len(row) != inst.n:
            report.append(f"dimension mismatch: row {i} has {len(row)} entries for {inst.n} clients")
        for j, c in enumerate(row, start=1):
            if is_inf(c):
                continue
            if not isinstance(c, int) or c < 0:
                report.append(f"cost ({i},{j}): must be a nonnegative integer or inf")
    if not report and inst.total_capacity < inst.total_demand:
        report.append("warning: total capacity below total demand (instance is infeasible)")
    return report


def check_monge_full(costs: Sequence[Sequence[Cost]]) -> Optional[MongeWitness]:
    """Check every (h<i, j<k) quadruple; None means the matrix is Monge.

    Returns the lexicographically first (h, i, j, k) witness otherwise.
    Works with INF entries, in O(m^2 n): each row pair (h, i) is decided
    by one right-to-left pass (``_pair_violated``), and only the first
    violating pair is rescanned quadruple by quadruple for its witness.
    """
    m = len(costs)
    n = len(costs[0]) if m else 0
    for h in range(m):
        for i in range(h + 1, m):
            if _pair_violated(costs[h], costs[i], n):
                return _first_witness(costs, h, i, n)
    return None


def _pair_violated(upper: Sequence[Cost], lower: Sequence[Cost],
                   n: int) -> bool:
    """Whether some j < k has upper[j] + lower[k] > upper[k] + lower[j].

    With k > j ranging over the clients already passed, a violation at
    j needs lower[j] finite and then one of:
    - upper[j] = INF and some upper[k] finite (INF lhs, finite rhs);
    - upper[j] finite and some k with upper[k] finite, lower[k] = INF;
    - all four finite and upper[j] - lower[j] > upper[k] - lower[k],
      i.e. more than the least finite row difference so far.
    """
    upper_finite = False     # some k with upper[k] finite
    lower_inf_only = False   # some k with upper[k] finite, lower[k] = INF
    least = INF              # min upper[k] - lower[k] over all-finite k
    for j in range(n - 1, -1, -1):
        a, b = upper[j], lower[j]
        if a == INF:
            if b != INF and upper_finite:
                return True
        elif b == INF:
            upper_finite = lower_inf_only = True
        else:
            diff = a - b
            if lower_inf_only or least < diff:
                return True
            upper_finite = True
            if diff < least:
                least = diff
    return False


def _first_witness(costs: Sequence[Sequence[Cost]], h: int, i: int,
                   n: int) -> MongeWitness:
    """The first violating (j, k) of row pair (h, i), 0-based rows."""
    for j in range(n):
        for k in range(j + 1, n):
            lhs = costs[h][j] + costs[i][k]
            rhs = costs[h][k] + costs[i][j]
            if lhs > rhs:
                return MongeWitness(h + 1, i + 1, j + 1, k + 1, lhs, rhs)
    raise AssertionError("row pair has no violating quadruple")


def check_monge_adjacent(costs: Sequence[Sequence[Cost]]) -> Optional[MongeWitness]:
    """Check only adjacent row/column pairs; O(mn).

    Equivalent to check_monge_full on all-finite matrices.  Matrices
    with INF entries are rejected: the adjacency reduction is only
    justified for finite entries, callers must use check_monge_full.
    """
    for row in costs:
        for c in row:
            if is_inf(c):
                raise ValueError("infinite entries unsupported; use check_monge_full")
    m = len(costs)
    n = len(costs[0]) if m else 0
    for h in range(m - 1):
        for j in range(n - 1):
            lhs = costs[h][j] + costs[h + 1][j + 1]
            rhs = costs[h][j + 1] + costs[h + 1][j]
            if lhs > rhs:
                return MongeWitness(h + 1, h + 2, j + 1, j + 2, lhs, rhs)
    return None
