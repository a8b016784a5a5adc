"""The table fill agrees bit for bit with the point-by-point reference.

Both fills run through the same base**k escalation ladder, so equal
scales also mean both raised on exactly the same smaller exponents.
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
from mongecfl.model import Client, Facility, Instance, is_inf
from mongecfl.reductions import lot_sizing_to_cfl

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


def assert_same_table(inst, grid):
    """Compare both fills; returns (escalated, object dtype)."""
    try:
        expected = reference_value_table(inst, grid)
    except _ScaleError:
        with pytest.raises(_ScaleError):
            build_value_table(inst, grid)
        return True, False
    table = build_value_table(inst, grid)
    assert table.scale == expected.scale
    assert len(table.rows) == len(expected.rows) == inst.m + 1
    for got, want in zip(table.rows, expected.rows):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    for got, want in zip(table.choices, expected.choices):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
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


def test_dense_escalating_fill_matches_reference():
    """Criterion-8 instance 3 escalates its scale exponent at eps 1/10."""
    rng = random.Random(3)
    costs = monge_cost_matrix(rng, 8, 8, 8)
    clients = [Client(rng.randint(250, 500)) for _ in range(8)]
    total = sum(c.demand for c in clients)
    facilities = [Facility(rng.randint(500, 1500),
                           rng.randint(total // 8, total // 2))
                  for _ in range(8)]
    inst = Instance(facilities, clients, costs)
    grid = BudgetGrid.for_instance(8, find_budget_bound(inst), Fraction(1, 10))
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
