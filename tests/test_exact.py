"""Exact dynamic program."""

import random
from fractions import Fraction

import pytest

from conftest import (ReferenceExactSolver, certify_solution,
                      reference_level, state_instance)
from mongecfl.exact import (DemandCapExceeded, ExactSolver, Solution,
                            solve_exact)
from mongecfl.fptas import run_fptas
from mongecfl.generate import random_lot_sizing, random_monge_instance
from mongecfl.kernel import FULL, shared
from mongecfl.model import INF, Client, Facility, Instance, is_inf
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


def test_no_clients_is_the_empty_solution():
    # nothing to serve: no facility opens and the cost is 0, as from
    # run_fptas, also with no facilities at all
    one = Instance([Facility(0, 1)], [], [[]])
    assert solve_exact(one) == run_fptas(one, 1).solution
    for inst in (one, Instance([], [], [])):
        solution = solve_exact(inst)
        assert solution.total_cost == 0
        assert solution.open == set() and solution.assignment.entries == {}
        assert solution.assignment.cost == 0


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


def _levels(solver):
    """Every level's (row, choice), i = m down to 1, as ``solve`` builds
    them."""
    row = [INF] * solver.total + [0]
    levels = {}
    for i in range(solver.inst.m, 0, -1):
        row, choice = solver._level(i, row)
        levels[i] = row, choice
    return levels


def _serve_count(solver):
    """The finite-cost serves of every state, counted one by one."""
    inst, total = solver.inst, solver.total
    count = 0
    for i in range(1, inst.m + 1):
        cap = inst.facilities[i - 1].capacity
        for S in range(solver._low[i], solver._reach[i] + 1):
            t = S
            while (t < min(S + cap, total)
                   and not is_inf(inst.cost(i, solver._unit_client[t] + 1))):
                t += 1
            count += t - S
    return count


def assert_levels_match_reference(inst):
    """Rows and choices on every state the reference visits, the state
    and serve counts, and the solution."""
    solver = ExactSolver(inst)
    got = solver.solve()
    reference = ReferenceExactSolver(inst)
    want = reference.solve()
    assert (got.total_cost, got.open, got.assignment.entries) == \
        (want.total_cost, want.open, want.assignment.entries)
    assert solver.states == sum(
        max(0, solver._reach[i] - solver._low[i] + 1)
        for i in range(1, inst.m + 1))
    assert solver.u_steps == _serve_count(solver)
    levels = _levels(solver)
    first_unit = [0]
    for c in inst.clients:
        first_unit.append(first_unit[-1] + c.demand)
    for (i, j, d), value in reference._memo.items():
        S = first_unit[j] - d
        row, choice = levels[i]
        assert row[S] == value
        if solver._low[i] <= S <= solver._reach[i]:
            assert choice[S - solver._low[i]] == \
                (reference._choice[i, j, d] or 0)
        else:
            assert is_inf(value)
    return got


@pytest.mark.parametrize("horizon, max_demand, max_capacity", [
    (40, 3, 8), (40, 3, 600), (60, 2, 60), (60, 2, 600), (80, 2, 20),
    (80, 1, 600), (12, 30, 60), (20, 30, 60), (30, 30, 60), (40, 30, 60)])
def test_levels_match_reference_on_long_lot_sizing(horizon, max_demand,
                                                   max_capacity):
    # long horizons at small demands, and the benchmark's lot-sizing
    # regime: demand <= 30 per period and order capacity <= 60
    rng = random.Random(horizon * 1000 + max_capacity)
    ls = random_lot_sizing(rng, horizon, max_cost=200, max_demand=max_demand,
                           max_capacity=max_capacity,
                           feasible=horizon != 40 or max_capacity == 600)
    assert_levels_match_reference(lot_sizing_to_cfl(ls))


@pytest.mark.parametrize("horizon, max_capacity", [(60, 600), (80, 60)])
def test_levels_match_unit_sweep(horizon, max_capacity):
    """Windows of hundreds of units, against the sweep that walks every
    serve size."""
    rng = random.Random(horizon + max_capacity)
    inst = lot_sizing_to_cfl(random_lot_sizing(
        rng, horizon, max_cost=200, max_demand=30, max_capacity=max_capacity,
        feasible=True))
    solver = ExactSolver(inst)
    solver.solve()
    u_steps = solver.u_steps
    row = [INF] * solver.total + [0]
    steps = 0
    for i, (got_row, got_choice) in sorted(_levels(solver).items(),
                                           reverse=True):
        row, choice, count = reference_level(solver, i, row)
        assert (got_row, got_choice) == (row, choice)
        steps += count
    assert u_steps == steps > 500_000


def test_zero_cost_ties_keep_closed_then_smallest_u():
    # every finite serve costs 0: ties everywhere, so a facility stays
    # closed when it can, and otherwise serves the fewest units that
    # leave the rest servable
    rng = random.Random(7001)
    opened = 0
    for _ in range(30):
        ls = random_lot_sizing(rng, rng.randint(2, 12), max_cost=0,
                               max_demand=3, max_holding=rng.randint(0, 1),
                               max_capacity=rng.randint(1, 9), feasible=True)
        opened += len(assert_levels_match_reference(
            lot_sizing_to_cfl(ls)).open)
    assert opened > 30
    # facility 3 alone cannot serve all 6 units, so facility 2 opens for
    # the smallest u of equal cost, 2, and facility 1 stays closed on
    # the tie
    inst = Instance([Facility(0, 6), Facility(0, 6), Facility(0, 4)],
                    [Client(2), Client(2), Client(2)], [[0, 0, 0]] * 3)
    solution = assert_levels_match_reference(inst)
    assert solution.open == {2, 3}
    assert solution.assignment.entries == {(2, 1): 1, (3, 2): 1, (3, 3): 1}
