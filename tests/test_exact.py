"""Exact dynamic program."""

import random

import pytest

from mongecfl.exact import (DemandCapExceeded, ExactSolver, Solution,
                            solve_exact)
from mongecfl.generate import random_monge_instance, random_staircase_instance
from mongecfl.model import Client, Facility, Instance, is_inf
from mongecfl.oracle import brute_force_optimum


def test_dp_value_examples(ref1):
    assert is_inf(ExactSolver(ref1).value(3, 1, 2))   # past the last facility
    assert ExactSolver(ref1).value(2, 1, 2) == 19     # open facility 2, u=5
    assert ExactSolver(ref1).value(1, 1, 2) == 11


def test_dp_value_base_cases(ref1):
    assert ExactSolver(ref1).value(1, 3, 0) == 0      # no clients left
    assert ExactSolver(ref1).value(3, 2, 0) == 0      # nothing left to serve
    # demand left past the last facility is infeasible
    assert is_inf(ExactSolver(ref1).value(3, 2, 3))


def test_solve_ref1(ref1):
    solution = solve_exact(ref1)
    assert solution.total_cost == 11
    assert solution.open == {1}
    assert solution.assignment.entries == {(1, 1): 1, (1, 2): 1}
    assert solution.recompute_cost(ref1) == 11


def test_solve_ref1_tight_capacity(ref1):
    inst = Instance([Facility(3, 4), Facility(10, 5)], ref1.clients, ref1.costs)
    solution = solve_exact(inst)
    assert solution.total_cost == 18
    assert solution.open == {1, 2}
    assert solution.total_cost == brute_force_optimum(inst).optimum


def test_solve_infeasible():
    inst = Instance([Facility(1, 2)], [Client(5)], [[1]])
    solution = solve_exact(inst)
    assert is_inf(solution.total_cost)
    assert solution.open == set() and solution.assignment.entries == {}


def test_demand_cap():
    inst = Instance([Facility(1, 10)], [Client(10)], [[1]])
    with pytest.raises(DemandCapExceeded):
        solve_exact(inst, demand_cap=5)


def test_solution_fractions_are_exact(ref1):
    inst = Instance([Facility(3, 4), Facility(10, 5)], ref1.clients, ref1.costs)
    solution = solve_exact(inst)
    for (i, j), x in solution.assignment.entries.items():
        assert 0 < x <= 1
        assert i in solution.open
    # per-client coverage sums to 1
    for j in range(1, inst.n + 1):
        assert sum(x for (_, b), x in solution.assignment.entries.items()
                   if b == j) == 1
    # per-facility load within capacity
    for i in solution.open:
        load = sum(x * inst.demand(j)
                   for (a, j), x in solution.assignment.entries.items()
                   if a == i)
        assert load <= inst.facilities[i - 1].capacity


def test_tie_break_prefers_closed():
    # both facilities individually optimal at equal cost; the DP must
    # keep the later one closed (skip preferred) and open only one
    inst = Instance([Facility(2, 5), Facility(2, 5)], [Client(3)], [[1], [1]])
    solution = solve_exact(inst)
    assert solution.total_cost == 5
    assert len(solution.open) == 1


def test_random_against_oracle_small():
    rng = random.Random(5150)
    for _ in range(40):
        inst = random_monge_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
        assert solve_exact(inst).total_cost == brute_force_optimum(inst).optimum


def test_staircase_against_oracle_small():
    rng = random.Random(6021)
    for _ in range(20):
        inst = random_staircase_instance(rng, rng.randint(1, 6))
        solution = solve_exact(inst)
        assert solution.total_cost == brute_force_optimum(inst).optimum
        if not is_inf(solution.total_cost):
            assert solution.recompute_cost(inst) == solution.total_cost


def test_recompute_cost_counts_openings(ref1):
    solution = Solution({1}, solve_exact(ref1).assignment, 11)
    assert solution.recompute_cost(ref1) == 11


def test_many_facilities_no_recursion_limit():
    # 1,500 facilities of capacity 2 at opening cost 1 and three clients
    # of demand 2 at zero transport cost: three facilities must open, and
    # ties keep facilities closed, so the last three open.
    m = 1500
    inst = Instance([Facility(1, 2)] * m, [Client(2)] * 3, [[0, 0, 0]] * m)
    solution = solve_exact(inst)
    assert solution.total_cost == 3
    assert solution.open == {m - 2, m - 1, m}
    assert solution.assignment.entries == {(m - 2, 1): 1, (m - 1, 2): 1,
                                           (m, 3): 1}
