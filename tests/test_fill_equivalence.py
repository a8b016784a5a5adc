"""The table fill agrees with the point-by-point reference.

The fill keeps each row over its own gcd-reduced scale, the reference
keeps the whole table over one scale lcm(costs)**k found by its
escalation ladder, so entries are compared as exact rationals and the
backpointers bit for bit.  The fill walks one serve curve per run of
equal values in the row below, so every comparison also checks
``ValueTable.curves`` against the number of distinct values in those
rows.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (_cost_scale_base, _ScaleError, extended_grid,
                      reference_fill_table, reference_value_table)
from mongecfl.fptas import (BudgetGrid, _range_max, build_value_table,
                            find_budget_bound)
from mongecfl.generate import (monge_cost_matrix, random_lot_sizing,
                               random_monge_instance)
from mongecfl.model import INF, Client, Facility, Instance, is_inf
from mongecfl.reductions import LotSizingInstance, lot_sizing_to_cfl

EPSILONS = (1, Fraction(1, 2), Fraction(1, 10), Fraction(1, 30))


def distinct_met_values(table):
    """Sum over levels of the number of distinct values in the row of
    demand already met (the row below each level)."""
    return sum(len(set(row.tolist())) for row in table.rows[1:])


def assert_same_fill(got, want):
    """Equal entries as exact rationals, every row of ``got`` reduced
    to its smallest scale, and bit-identical backpointers."""
    assert len(got.rows) == len(want.rows) == len(got.scales)
    assert got.scale == got.scales[0]
    for a, scale, b in zip(got.rows, got.scales, want.rows):
        a, b = a.tolist(), b.tolist()
        assert math.gcd(scale, *a) == 1
        assert [v * want.scale for v in a] == [v * scale for v in b]
    for a, b in zip(got.choices, want.choices):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert got.curves == distinct_met_values(got)


def assert_same_table(inst, grid):
    """Compare both fills; returns (the reference escalated, the top
    row is object dtype)."""
    expected = reference_value_table(inst, grid)
    table = build_value_table(inst, grid)
    assert len(table.rows) == inst.m + 1
    assert_same_fill(table, expected)
    escalated = expected.scale != _cost_scale_base(inst) ** min(inst.m, 2)
    return escalated, table.rows[0].dtype == np.dtype(object)


def test_random_int64_fills_match_reference():
    """Random Monge instances over the epsilon sweep, some on extended
    grids; zero-cost entries and free opening included."""
    rng = random.Random(1)
    escalations = zero_costs = free_opens = extended = 0
    for n_inst in range(36):
        inst = random_monge_instance(
            rng, rng.randint(3, 5), rng.randint(2, 5), max_cost=10,
            max_demand=20, max_open_cost=rng.choice((0, 20)), feasible=True)
        zero_costs += any(c == 0 for row in inst.costs for c in row)
        free_opens += any(f.open_cost == 0 for f in inst.facilities)
        B = find_budget_bound(inst)
        for eps in EPSILONS:
            grid = BudgetGrid.for_instance(inst.m, B, eps)
            if n_inst % 3 == 0:
                grid = extended_grid(grid, 2 * B)
                extended += 1
            escalated, _ = assert_same_table(inst, grid)
            escalations += escalated
    assert escalations >= 1
    assert zero_costs and free_opens and extended


def test_staircase_fills_match_reference():
    """Lot-sizing reductions: staircase inf costs, both dtypes.  The
    last draw's holding costs near 2**40 push its scaled values past
    2**62, into object dtype."""
    rng = random.Random(77)
    objects = int64s = 0
    for draw in range(13):
        ls = random_lot_sizing(rng, rng.randint(2, 7), max_cost=200,
                               max_demand=30, max_capacity=60, feasible=True,
                               max_holding=10 if draw < 12 else 2**40)
        inst = lot_sizing_to_cfl(ls)
        assert any(is_inf(c) for row in inst.costs for c in row)
        B = find_budget_bound(inst)
        for eps in (Fraction(1, 2), Fraction(1, 10)):
            _, is_object = assert_same_table(
                inst, BudgetGrid.for_instance(inst.m, B, eps))
            objects += is_object
            int64s += not is_object
    assert objects >= 1 and int64s >= 1


def test_each_level_picks_its_own_dtype():
    """A level is object dtype exactly when a value it forms passes
    int64, and the levels on either side stay int64.  Both grids have
    W = 16, and facility 2's level has unit = its cost c.  In the first
    instance facility 2 first serves client 2 for free, 2 units over
    unit c, a packed key of 2 * c * W plus its tag: it passes 2**63
    from c = 2**58 + 1 on.
    In the second, facility 2's rate-1 lines have slope K * c, and
    their floor ((size - 1) * K * c + 1) * W passes 2**63 at
    c = 7 * 2**25 + 1, while every key of the level is still below
    2**63, and at c = 2**28 + 1.  Both rows of facility 2 reduce to
    scale 1, and the level above, whose costs are 1, is int64."""
    def first(c):
        return Instance([Facility(0, 5), Facility(0, 2)],
                        [Client(3), Client(2)], [[1, 1], [c, 0]])

    def second(c):
        return Instance([Facility(0, 5), Facility(0, 20)],
                        [Client(2), Client(9)], [[1, 1], [1, c]])

    objects = 0
    for make, costs, top in (
            (first, (2**57 + 1, 2**58 + 1), lambda grid, c: 2 * c * 16),
            (second, (2**27 + 1, 7 * 2**25 + 1, 2**28 + 1),
             lambda grid, c: ((grid.size - 1) * grid.K * c + 1) * 16)):
        for c in costs:
            inst = make(c)
            grid = BudgetGrid.for_instance(2, find_budget_bound(inst),
                                           Fraction(1, 2))
            assert (grid.size - 1).bit_length() == 4
            assert assert_same_table(inst, grid) == (False, False)
            table = build_value_table(inst, grid)
            passes = top(grid, c) >= 2**63
            assert [row.dtype for row in table.rows] == [
                np.dtype(np.int64), np.dtype(object if passes else np.int64),
                np.dtype(np.int64)]
            assert table.scales == [1, 1, 1]
            objects += passes
    assert objects == 3


def dense_instance(seed):
    """Criterion-8 instance ``seed``."""
    rng = random.Random(seed)
    costs = monge_cost_matrix(rng, 8, 8, 8)
    clients = [Client(rng.randint(250, 500)) for _ in range(8)]
    total = sum(c.demand for c in clients)
    facilities = [Facility(rng.randint(500, 1500),
                           rng.randint(total // 8, total // 2))
                  for _ in range(8)]
    return Instance(facilities, clients, costs)


def test_dense_escalating_fill_matches_reference():
    """Criterion-8 instances 3 and 9 (the ``fptas-dense`` benchmark set)
    at eps 1/10; both escalate their scale exponent."""
    for seed in (3, 9):
        inst = dense_instance(seed)
        grid = BudgetGrid.for_instance(8, find_budget_bound(inst),
                                       Fraction(1, 10))
        assert assert_same_table(inst, grid) == (True, False)


def test_half_unit_partial_serve_at_unit_grid_step():
    """Served demand q/2 on a segment from q = 0, with K = 1: the
    reference is inexact at scale 1 past the segment's first point, and
    the fill keeps the level over scale 2.  A one-point segment of that
    kind stays whole at scale 1."""
    inst = Instance([Facility(0, 10)], [Client(4)], [[2]])
    grid = BudgetGrid(K=1, size=10)
    with pytest.raises(_ScaleError):
        reference_fill_table(inst, grid, 1)
    assert_same_table(inst, grid)
    table = build_value_table(inst, grid)
    assert table.rows[0].tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 8]
    assert table.scales == [2, 1]
    # demand 1 at rate 2 costs 2 < K = 3, so the segment is one point
    inst = Instance([Facility(0, 10)], [Client(1)], [[2]])
    grid = BudgetGrid(K=3, size=4)
    table = build_value_table(inst, grid)
    assert_same_fill(table, reference_fill_table(inst, grid, 1))
    assert table.scales == [1, 1]
    # below a facility that serves nothing and opens at one grid step,
    # the half-unit row rises at every index, so each index s carries
    # over t = s; on 16 points the last one is t = 15 = W - 1, whose
    # packed key has tag 0
    inst = Instance([Facility(1, 10), Facility(0, 10)], [Client(8)],
                    [[INF], [2]])
    for size in (15, 16):
        grid = BudgetGrid(K=1, size=size)
        assert_same_table(inst, grid)
        table = build_value_table(inst, grid)
        assert table.choices[0].tolist() == list(range(size))


def test_fill_on_long_runs_of_equal_met_values():
    """Plateaus in the row below: a facility that saturates after a few
    grid steps, facilities that can serve nothing (an all-inf cost row,
    as the lot-sizing reduction encodes a zero-capacity order), and a
    lot-sizing instance with zero-capacity orders, each under four
    kinds of opening cost (free, a multiple of K, not a multiple of K,
    and 2**70, past int64 and, on the fixed grid, past its end, so
    there nothing is served)."""
    clients = [Client(d) for d in (7, 5, 9, 4)]
    costs = [[3, 2, 2, 4], [4, 2, 1, 2], [6, 3, 1, 1], [9, 5, 2, 1]]
    grid = BudgetGrid(K=2, size=61)
    for open_cost in (0, 6, 7, 2**70):
        plateau = Instance(
            [Facility(open_cost, 30), Facility(open_cost, 12),
             Facility(open_cost, 11), Facility(open_cost, 3)],
            clients, costs)
        zero_cap = Instance(
            [Facility(open_cost, 30), Facility(open_cost, 1),
             Facility(open_cost, 12), Facility(open_cost, 1)],
            clients, [costs[0], [INF] * 4, costs[2], [INF] * 4])
        for inst in (plateau, zero_cap):
            assert_same_table(inst, grid)
            table = build_value_table(inst, grid)
            assert table.curves < inst.m * grid.size // 2
        ls = LotSizingInstance(
            6, [(open_cost, 9), (open_cost, 0), (open_cost, 14),
                (open_cost, 0), (open_cost, 8), (open_cost, 0)],
            [(t, 0, a) for t, a in enumerate((3, 4, 0, 6, 5, 2), start=1)],
            [1, 3, 2, 1, 2])
        inst = lot_sizing_to_cfl(ls)
        assert all(is_inf(c) for c in inst.costs[-1])
        B = find_budget_bound(inst)
        for eps in (Fraction(1, 2), Fraction(1, 10)):
            assert_same_table(inst, BudgetGrid.for_instance(inst.m, B, eps))


def test_partial_serve_from_the_first_offset_of_a_run():
    """The row below is [0, 1, 1, ...]: the run of 1s starts at t = 1,
    whose serve curve is the first with a partial serve at rate 2 (the
    one at t = 0 stops at the capacity before reaching that client), so
    the reference is inexact at scale 1 there.  The fill keeps the top
    level over scale 2 and the one below over scale 1."""
    inst = Instance([Facility(0, 1), Facility(0, 1)],
                    [Client(3), Client(1)], [[2, 1], [5, 1]])
    grid = BudgetGrid(K=1, size=8)
    with pytest.raises(_ScaleError):
        reference_fill_table(inst, grid, 1)
    assert_same_table(inst, grid)
    table = build_value_table(inst, grid)
    assert table.rows[1].tolist() == [0] + [1] * 7
    assert table.rows[0].tolist() == [0, 2, 3, 4, 4, 4, 4, 4]
    assert table.scales == [2, 1, 1]


def test_curves_count_runs_of_the_met_row():
    """Level 2 walks one curve over the all-zero base row; facility 2
    serves one unit at cost 1, so level 1 walks two, for t = 0 and
    t = 1."""
    inst = Instance([Facility(0, 1), Facility(0, 1)],
                    [Client(3), Client(1)], [[1, 1], [5, 1]])
    grid = BudgetGrid(K=1, size=8)
    table = build_value_table(inst, grid)
    assert table.rows[1].tolist() == [0] + [1] * 7
    assert table.scales == [1, 1, 1]
    assert table.curves == 1 + 2 == distinct_met_values(table)


def test_all_zero_level_with_unit_above_int64():
    """A level whose row is all zero reduces to scale 1 even when its
    unit passes 2**63: the gcd of the row and the unit is the unit, and
    the int64 row must not be divided by it.  Facility 2 opens at
    10**30, past the grid's end, and its cost lcm is
    (2**61 - 1) * (2**31 - 1)."""
    inst = Instance([Facility(0, 10), Facility(10**30, 10)],
                    [Client(1), Client(1)],
                    [[1, 1], [2**61 - 1, 2**31 - 1]])
    grid = BudgetGrid.for_instance(2, find_budget_bound(inst),
                                   Fraction(1, 2))
    assert (2**61 - 1) * (2**31 - 1) >= 2**63
    assert_same_table(inst, grid)
    table = build_value_table(inst, grid)
    assert table.rows[1].tolist() == [0] * grid.size
    assert table.scales[1:] == [1, 1]


def brute_range_max(size, lo, hi, keys, floor):
    out = [floor] * size
    for a, b, key in zip(lo, hi, keys):
        for s in range(a, b):
            out[s] = max(out[s], key)
    return out


def test_range_max_matches_brute_force():
    """``_range_max`` against a per-cell max over seeded random
    intervals, in int64 and object dtype: length-1 and power-of-two
    lengths, intervals that touch index 0 or size - 1, keys drawn from
    a small pool so that they repeat, and sizes around powers of two."""
    rng = random.Random(13)
    for size in (1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65):
        for dtype, span in ((np.int64, 2**60), (object, 2**100)):
            for _ in range(15):
                pool = [rng.randint(-span, span) for _ in range(3)]
                lo, hi, keys = [], [], []
                for _ in range(rng.randint(1, 2 * size)):
                    length = rng.choice((
                        1, 1 << rng.randrange(size.bit_length()),
                        rng.randint(1, size)))
                    start = rng.choice((0, size - length,
                                        rng.randint(0, size - length)))
                    lo.append(start)
                    hi.append(start + length)
                    keys.append(rng.choice(pool))
                floor = -span - 1
                got = _range_max(size, np.array(lo), np.array(hi),
                                 np.array(keys, dtype=dtype), floor, dtype)
                assert got.dtype == np.dtype(dtype)
                assert got.tolist() == brute_range_max(size, lo, hi, keys,
                                                       floor)


def test_range_max_peak_is_linear_in_size():
    """``_range_max`` keeps one level of its sparse table live, so its
    tracemalloc peak on 2**16 indices with intervals of every length,
    all 17 levels, stays within 8 arrays of the size's length: the
    intervals' own arrays and their sorted copies take about 6, and a
    table of every level would take 17."""
    size = 2**16
    rng = np.random.default_rng(16)
    lengths = np.arange(1, size + 1)
    lo = rng.integers(0, size - lengths + 1)
    keys = rng.integers(-2**40, 2**40, size)
    tracemalloc.start()
    try:
        _range_max(size, lo, lo + lengths, keys, -2**41, np.int64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * size * 8
