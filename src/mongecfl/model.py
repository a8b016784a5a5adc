"""Problem instances and Monge-property verification.

Every number entering a model type (the classes here, and
``LotSizingInstance`` and ``ClientPartition``) must pass ``is_int``, or
a ValueError names its field; ``validate_instance`` reports the ranges.
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
from functools import cached_property
from typing import List, Optional, Sequence, Union

INF = math.inf

#: A transport cost: a nonnegative int, or INF.
Cost = Union[int, float]


class Infeasible(Exception):
    """The instance admits no solution serving all demand."""


def is_inf(c: Cost) -> bool:
    return c == INF


def is_int(v) -> bool:
    """The one integer rule for every input: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def require_int(field: str, *values) -> None:
    for v in values:
        if not is_int(v):
            raise ValueError(f"{field} must be an integer, got {v!r}")


@dataclass(frozen=True, slots=True)
class Facility:
    open_cost: int   # one-time cost to open
    capacity: int    # units of demand it can absorb

    def __post_init__(self):
        require_int("open_cost", self.open_cost)
        require_int("capacity", self.capacity)
        if self.open_cost < 0:
            raise ValueError("open_cost must be >= 0")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")


@dataclass(frozen=True, slots=True)
class Client:
    demand: int
    release: Optional[int] = None   # first facility index that may serve it
    deadline: Optional[int] = None  # last facility index that may serve it

    def __post_init__(self):
        require_int("demand", self.demand)
        for field in ("release", "deadline"):
            if getattr(self, field) is not None:
                require_int(field, getattr(self, field))


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
        facilities, clients = tuple(facilities), tuple(clients)
        for field, entries, kind in (("facility", facilities, Facility),
                                     ("client", clients, Client)):
            for k, entry in enumerate(entries, start=1):
                if not isinstance(entry, kind):
                    raise ValueError(f"{field} {k} must be a {kind.__name__}, "
                                     f"got {entry!r}")
        object.__setattr__(self, "facilities", facilities)
        object.__setattr__(self, "clients", clients)
        costs = tuple(tuple(row) for row in costs)
        for i, row in enumerate(costs, start=1):
            for j, c in enumerate(row, start=1):
                if not (is_int(c) or c == INF):
                    raise ValueError(f"cost ({i},{j}) must be an integer or "
                                     f"inf, got {c!r}")
        object.__setattr__(self, "costs", costs)

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

    @cached_property
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
            if c < 0:
                report.append(f"cost ({i},{j}): must be a nonnegative integer or inf")
    if not report and inst.total_capacity < inst.total_demand:
        report.append("warning: total capacity below total demand (instance is infeasible)")
    return report


def check_monge_full(costs: Sequence[Sequence[Cost]]) -> Optional[MongeWitness]:
    """Check the Monge property; None means the matrix is Monge.

    Returns the lexicographically first (h, i, j, k) witness otherwise.
    Each row pair is decided by one right-to-left pass
    (``_pair_violated``).  The m - 1 or fewer consecutive pairs of rows
    with a finite entry decide the matrix in O(mn); only when one of
    them is violated are all pairs scanned, in O(m^2 n), and the first
    violating pair rescanned quadruple by quadruple for its witness.

    Why consecutive rows suffice (Burkard, Klinz & Rudolf 1996 for
    finite matrices).  A quadruple violates only if its right-hand side
    c[h][k] + c[i][j] is finite, so rows with no finite entry never
    take part; drop them.  Let row r's finite entries lie in columns
    a_r..b_r.  If consecutive rows r < r' pass, then a_r <= a_r' (else
    j = a_r', k = a_r violates with an INF left-hand side) and b_r <=
    b_r' (else j = b_r', k = b_r does).  Now take h < i and j < k with
    c[h][k] and c[i][j] finite, and the kept rows h = r_0 < ... < r_p =
    i.  Downward from i: c[r_t][b_r_t] is finite with b_r_t >= b_h >= k
    > j, so pair (r_t, r_t+1) passing at (j, b_r_t) makes c[r_t][j]
    finite.  Upward from h: a_r_t <= a_i <= j < k, so pair (r_t-1, r_t)
    passing at (a_r_t, k) makes c[r_t][k] finite.  Every 2x2 quadruple
    (r_t, r_t+1, j, k) is then finite and holds, and their sum
    telescopes to the (h, i, j, k) inequality.  INF holes inside a_r..b_r
    and decreasing ends need no check of their own: a pass rejects the
    ones that matter.  This decides finite matrices, lot-sizing
    reductions, windowed instances and each class of a two-class
    partition in O(mn).
    """
    m, n = len(costs), _width(costs)
    rows = [row for row in costs if row.count(INF) < n]
    if not any(_pair_violated(upper, lower, n)
               for upper, lower in zip(rows, rows[1:])):
        return None
    for h in range(m):
        for i in range(h + 1, m):
            if _pair_violated(costs[h], costs[i], n):
                return _first_witness(costs, h, i, n)
    return None


def _width(costs: Sequence[Sequence[Cost]]) -> int:
    """The common row length of a cost matrix (0 without rows)."""
    n = len(costs[0]) if costs else 0
    if any(len(row) != n for row in costs):
        raise ValueError("cost rows differ in length")
    return n


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
