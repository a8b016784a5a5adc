"""Budget-grid approximation scheme."""

import math
import random
from fractions import Fraction

import pytest

from conftest import certify_solution, exact_value_function, grid_points
from mongecfl.fptas import (BudgetGrid, build_value_table, demand_met,
                            find_budget_bound, find_min_contribution,
                            max_contribution_feasible, run_fptas,
                            serve_everything_costs, solve_fptas)
from mongecfl.generate import random_monge_instance
from mongecfl.model import Client, Facility, Infeasible, Instance
from mongecfl.oracle import brute_force_optimum


def test_grid_construction():
    grid = BudgetGrid.for_instance(2, 22, 1)
    assert grid.K == math.ceil(Fraction(22, 6)) == 4
    assert grid_points(grid)[-1] == (math.ceil(22 / 4) + 2) * 4 == 32
    assert grid_points(grid)[0] == 0
    assert all(b % grid.K == 0 for b in grid_points(grid))


def test_grid_k_floors_at_one():
    grid = BudgetGrid.for_instance(3, 5, Fraction(1, 100))
    assert grid.K == 1


def test_grid_rounding_and_index():
    grid = BudgetGrid.for_instance(2, 22, 1)
    assert grid.round_up(9) == 12
    assert grid.round_up(12) == 12
    assert grid.index(8) == 2
    with pytest.raises(ValueError):
        grid.index(9)
    with pytest.raises(ValueError):
        grid.index(36)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BudgetGrid.for_instance(0, 22, 1)
    with pytest.raises(ValueError):
        BudgetGrid.for_instance(2, 22, 0)


def test_max_contribution_examples(ref1):
    feasible, values = max_contribution_feasible(ref1, 10)
    assert not feasible
    assert values[1] == 4
    feasible, values = max_contribution_feasible(ref1, 11)
    assert feasible
    assert values[2] == 1 and values[1] == 5
    # the search range's upper end is feasible for feasible instances
    limit = max(serve_everything_costs(ref1))
    assert max_contribution_feasible(ref1, limit)[0]


def test_demand_met_step():
    # facility 1 opens at 4; client 2 is free and client 1 costs 2
    inst = Instance([Facility(4, 5)], [Client(2), Client(3)], [[2, 0]])
    # ell equal to the opening cost leaves money 0, which still serves
    # all of the free client
    assert demand_met(inst, 1, 0, 1, 4) == (3, 1)
    # money 1 also buys half a unit of client 1, over the lcm 2
    assert demand_met(inst, 1, 0, 1, 5) == (7, 2)
    # with half a unit met: 1/2 + 5/2, in lowest terms
    assert demand_met(inst, 1, 1, 2, 4) == (3, 1)
    # one short of the opening cost: the facility adds nothing
    assert demand_met(inst, 1, 1, 2, 3) == (1, 2)


def test_find_budget_bound_ref1(ref1):
    assert find_min_contribution(ref1) == 11
    assert find_budget_bound(ref1) == 22


def test_find_budget_bound_single_facility():
    inst = Instance([Facility(5, 1)], [Client(1)], [[2]])
    assert find_min_contribution(inst) == 7
    assert find_budget_bound(inst) == 7


def test_find_budget_bound_infeasible():
    inst = Instance([Facility(1, 2)], [Client(5)], [[1]])
    with pytest.raises(Infeasible):
        find_budget_bound(inst)


def test_feasibility_monotone_in_ell(ref1):
    flags = [max_contribution_feasible(ref1, ell)[0]
             for ell in range(max(serve_everything_costs(ref1)) + 1)]
    assert flags == sorted(flags)


def test_value_table_ref1_coarse(ref1):
    grid = BudgetGrid.for_instance(2, 22, 1)
    table = build_value_table(ref1, grid)
    assert grid.K == 4
    assert table.value(1, 12) == 5
    assert table.choice(1, 12) == 0
    for b in grid_points(grid):
        assert table.value(3, b) == 0


def test_value_table_monotone_and_bounded(ref1):
    grid = BudgetGrid.for_instance(2, 22, Fraction(1, 2))
    table = build_value_table(ref1, grid)
    for i in range(1, ref1.m + 2):
        prev = None
        for b in grid_points(grid):
            v = table.value(i, b)
            assert 0 <= v <= ref1.total_demand
            if prev is not None:
                assert v >= prev
            prev = v


def test_exact_value_function_ref1(ref1):
    assert exact_value_function(ref1, 1, 11) == 5
    assert exact_value_function(ref1, 1, 10) < 5
    assert exact_value_function(ref1, 3, 40) == 0
    with pytest.raises(ValueError):
        exact_value_function(ref1, 1, 10, budget_cap=5)


def test_run_fptas_ref1(ref1):
    result = run_fptas(ref1, 1)
    assert result.bound == 22
    assert result.grid_budget == 12
    assert result.solution.total_cost == 11
    # fine epsilon gives K=1 and the exact optimum
    assert solve_fptas(ref1, Fraction(1, 10)).total_cost == 11


def test_run_fptas_single_facility():
    inst = Instance([Facility(5, 1)], [Client(1)], [[2]])
    for eps in (1, Fraction(1, 2), Fraction(1, 100)):
        assert solve_fptas(inst, eps).total_cost == 7


def test_run_fptas_infeasible():
    inst = Instance([Facility(1, 2)], [Client(5)], [[1]])
    with pytest.raises(Infeasible):
        run_fptas(inst, 1)


def test_reconstruction_soundness():
    rng = random.Random(314)
    for _ in range(15):
        inst = random_monge_instance(rng, rng.randint(2, 4),
                                     rng.randint(2, 4), feasible=True)
        for eps in (1, Fraction(1, 3)):
            result = run_fptas(inst, eps)
            solution = result.solution
            assert certify_solution(inst, solution) == []
            assert all(0 < x for x in solution.assignment.entries.values())
            assert solution.total_cost <= result.grid_budget


def test_bound_sandwich_against_oracle():
    rng = random.Random(2718)
    for _ in range(25):
        inst = random_monge_instance(rng, rng.randint(2, 4),
                                     rng.randint(2, 4), feasible=True)
        opt = brute_force_optimum(inst).optimum
        B = find_budget_bound(inst)
        assert opt <= B <= inst.m * opt
