"""The table fill agrees bit for bit with the point-by-point reference.

Both fills run through the same base**k escalation ladder, so equal
scales also mean both raised on exactly the same smaller exponents.
The fill walks one serve curve per run of equal values in the row
below, so every comparison also checks ``ValueTable.curves`` against
the number of distinct values in those rows.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import reference_fill_table
from mongecfl.fptas import (BudgetGrid, _cost_scale_base, _fill_table,
                            _ScaleError, build_value_table, find_budget_bound)
from mongecfl.generate import (monge_cost_matrix, random_lot_sizing,
                               random_monge_instance)
from mongecfl.model import INF, Client, Facility, Instance, is_inf
from mongecfl.reductions import LotSizingInstance, lot_sizing_to_cfl

EPSILONS = (1, Fraction(1, 2), Fraction(1, 10), Fraction(1, 30))


def reference_value_table(inst, grid):
    """``reference_fill_table`` behind build_value_table's ladder."""
    base = _cost_scale_base(inst)
    k = min(inst.m, 2)
    while True:
        try:
            return reference_fill_table(inst, grid, base ** k)
        except _ScaleError:
            if k >= inst.m:
                raise
            k = min(inst.m, k * 2)


def distinct_met_values(table):
    """Sum over levels of the number of distinct values in the row of
    demand already met (the row below each level)."""
    return sum(len(set(row.tolist())) for row in table.rows[1:])


def assert_same_fill(got, want):
    assert got.scale == want.scale
    assert len(got.rows) == len(want.rows)
    for a, b in zip(got.rows, want.rows):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    for a, b in zip(got.choices, want.choices):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert got.curves == distinct_met_values(got)


def assert_same_table(inst, grid):
    """Compare both fills; returns (escalated, object dtype)."""
    try:
        expected = reference_value_table(inst, grid)
    except _ScaleError:
        with pytest.raises(_ScaleError):
            build_value_table(inst, grid)
        return True, False
    table = build_value_table(inst, grid)
    assert len(table.rows) == inst.m + 1
    assert_same_fill(table, expected)
    escalated = table.scale != _cost_scale_base(inst) ** min(inst.m, 2)
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
            extend_to = 2 * B if n_inst % 3 == 0 else None
            extended += extend_to is not None
            grid = BudgetGrid.for_instance(inst.m, B, eps, extend_to=extend_to)
            escalated, _ = assert_same_table(inst, grid)
            escalations += escalated
    assert escalations >= 1
    assert zero_costs and free_opens and extended


def test_staircase_fills_match_reference():
    """Lot-sizing reductions: staircase inf costs, both dtypes."""
    rng = random.Random(77)
    objects = int64s = 0
    for _ in range(12):
        ls = random_lot_sizing(rng, rng.randint(2, 7), max_cost=200,
                               max_demand=30, max_capacity=60, feasible=True)
        inst = lot_sizing_to_cfl(ls)
        assert any(is_inf(c) for row in inst.costs for c in row)
        B = find_budget_bound(inst)
        for eps in (Fraction(1, 2), Fraction(1, 10)):
            _, is_object = assert_same_table(
                inst, BudgetGrid.for_instance(inst.m, B, eps))
            objects += is_object
            int64s += not is_object
    assert objects >= 1 and int64s >= 1


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


def test_segment_exactness_is_checked_past_the_first_point():
    """A segment whose first point divides but whose grid step K*scale
    does not must raise; a one-point segment of that kind must not."""
    inst = Instance([Facility(0, 10)], [Client(4)], [[2]])
    # K*scale = 1: served demand is q/2 on the segment from q = 0
    grid = BudgetGrid(K=1, B=8, m=1, size=10)
    with pytest.raises(_ScaleError):
        reference_fill_table(inst, grid, 1)
    with pytest.raises(_ScaleError):
        _fill_table(inst, grid, 1)
    # demand 1 at rate 2 costs 2 < K = 3, so the segment is one point
    inst = Instance([Facility(0, 10)], [Client(1)], [[2]])
    grid = BudgetGrid(K=3, B=3, m=1, size=4)
    want = reference_fill_table(inst, grid, 1)
    got = _fill_table(inst, grid, 1)
    assert all(np.array_equal(a, b) for a, b in zip(got.rows, want.rows))
    assert all(np.array_equal(a, b)
               for a, b in zip(got.choices, want.choices))


def test_fill_on_long_runs_of_equal_met_values():
    """Plateaus in the row below: a facility that saturates after a few
    grid steps, facilities that can serve nothing (an all-inf cost row,
    as the lot-sizing reduction encodes a zero-capacity order), and a
    lot-sizing instance with zero-capacity orders, each under the three
    kinds of opening cost (free, a multiple of K, not a multiple of
    K)."""
    clients = [Client(d) for d in (7, 5, 9, 4)]
    costs = [[3, 2, 2, 4], [4, 2, 1, 2], [6, 3, 1, 1], [9, 5, 2, 1]]
    grid = BudgetGrid(K=2, B=60, m=4, size=61)
    for open_cost in (0, 6, 7):
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


def test_scale_error_from_the_first_offset_of_a_run():
    """At scale 1 the row below is [0, 1, 1, ...]: the run of 1s starts
    at t = 1, whose serve curve is the first to divide inexactly (the
    one at t = 0 stops at the capacity before reaching that client).
    Every skipped t > 1 walks the same curve, so it would raise too."""
    inst = Instance([Facility(0, 1), Facility(0, 1)],
                    [Client(3), Client(1)], [[2, 1], [5, 1]])
    grid = BudgetGrid(K=1, B=6, m=2, size=8)
    with pytest.raises(_ScaleError):
        reference_fill_table(inst, grid, 1)
    with pytest.raises(_ScaleError):
        _fill_table(inst, grid, 1)
    assert_same_fill(_fill_table(inst, grid, 2),
                     reference_fill_table(inst, grid, 2))
    assert _fill_table(inst, grid, 2).rows[1].tolist() == [0] + [2] * 7
    assert_same_table(inst, grid)


def test_curves_count_runs_of_the_met_row():
    """Level 2 walks one curve over the all-zero base row; facility 2
    serves one unit at cost 1, so level 1 walks two, for t = 0 and
    t = 1."""
    inst = Instance([Facility(0, 1), Facility(0, 1)],
                    [Client(3), Client(1)], [[1, 1], [5, 1]])
    grid = BudgetGrid(K=1, B=6, m=2, size=8)
    table = build_value_table(inst, grid)
    assert table.rows[1].tolist() == [0] + [table.scale] * 7
    assert table.curves == 1 + 2 == distinct_met_values(table)
