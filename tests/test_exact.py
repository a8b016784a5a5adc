"""Exact dynamic program."""

import random
from fractions import Fraction

import pytest

from conftest import certify_solution, state_instance
from mongecfl.exact import DemandCapExceeded, Solution, solve_exact
from mongecfl.generate import random_lot_sizing, random_monge_instance
from mongecfl.kernel import FULL, shared
from mongecfl.model import Client, Facility, Instance, is_inf
from mongecfl.oracle import brute_force_optimum
from mongecfl.reductions import lot_sizing_to_cfl


def test_dp_value_examples(ref1):
    # facility 2 alone serves all 5 units: 10 + 3 * 2 + 1 * 3
    assert solve_exact(state_instance(ref1, 2, 1, 2)).total_cost == 19
    assert solve_exact(state_instance(ref1, 1, 1, 2)).total_cost == 11
    # client 2 alone: facility 1 at 3 + 2 * 3 beats facility 2 at 10 + 3
    assert solve_exact(state_instance(ref1, 1, 2, 3)).total_cost == 9


def test_solve_ref1(ref1):
    solution = solve_exact(ref1)
    assert solution.total_cost == 11
    assert solution.open == {1}
    assert solution.assignment.entries == {(1, 1): 1, (1, 2): 1}
    assert certify_solution(ref1, solution) == []


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
    assert certify_solution(inst, solution) == []
    assert all(0 < x for x in solution.assignment.entries.values())


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
        inst = lot_sizing_to_cfl(random_lot_sizing(rng, rng.randint(1, 6)))
        solution = solve_exact(inst)
        assert solution.total_cost == brute_force_optimum(inst).optimum
        if not is_inf(solution.total_cost):
            assert certify_solution(inst, solution) == []


def test_recompute_cost_counts_openings(ref1):
    solution = Solution({1}, solve_exact(ref1).assignment, 11)
    assert certify_solution(ref1, solution) == []
    # transport alone (8) is not the cost
    assert certify_solution(ref1, Solution({1}, solution.assignment, 8))


def test_from_served(ref1):
    solution = Solution.from_served(
        ref1, [(1, 1, 2), (1, 2, 1), (2, 2, 2), (2, 1, 0)])
    assert solution.open == {1, 2}
    assert solution.assignment.entries == {
        (1, 1): 1, (1, 2): Fraction(1, 3), (2, 2): Fraction(2, 3)}
    assert solution.assignment.entries[(1, 1)] is FULL
    for key in solution.assignment.entries:
        assert key is shared(tuple(list(key)))  # an equal, fresh tuple
    # transport 1*2 + 2*1 + 1*2, opening 3 + 10, all integers
    assert solution.assignment.cost == 6 and type(solution.assignment.cost) is int
    assert solution.total_cost == 19 and type(solution.total_cost) is int
    assert certify_solution(ref1, solution) == []
    # an equal solution shares its open set and shares; equal rational
    # costs stay Fractions
    again = Solution.from_served(
        ref1, [(1, 1, Fraction(2)), (1, 2, Fraction(1)), (2, 2, Fraction(2))])
    assert again.open is solution.open
    assert again.assignment.entries[(2, 2)] is \
        solution.assignment.entries[(2, 2)]
    assert again.total_cost == 19 and type(again.total_cost) is Fraction


def test_from_served_opens_only_serving_facilities(ref1):
    solution = Solution.from_served(ref1, [(2, 1, 0), (1, 2, 3), (2, 2, 0)])
    assert solution.open == {1}
    assert solution.assignment.entries == {(1, 2): 1}
    assert solution.total_cost == 3 + 2 * 3
    empty = Solution.from_served(ref1, [(1, 1, 0), (2, 2, Fraction(0))])
    assert empty.open == set() and empty.assignment.entries == {}
    assert empty.total_cost == 0
    partial = Solution.from_served(ref1, [(1, 1, Fraction(1, 2))])
    assert partial.assignment.entries == {(1, 1): Fraction(1, 4)}
    assert partial.total_cost == 3 + Fraction(1, 2)


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
