"""The bottom-up exact DP and the O(m^2 n) Monge check agree with the
top-down memoized DP and the quadruple loop kept in ``conftest``.

Solutions must match entry for entry (same open set, same fractions,
same costs), which pins the tie-break: on a tie the facility stays
closed, otherwise the smallest u with a strictly lower cost wins.
Witnesses must match field for field, ``lhs``/``rhs`` included.
"""

import random

import pytest

from conftest import ReferenceExactSolver, reference_check_monge_full
from mongecfl import exact
from mongecfl.exact import ExactSolver
from mongecfl.generate import (monge_cost_matrix, random_lot_sizing,
                               random_monge_instance,
                               random_staircase_instance)
from mongecfl.model import (INF, Client, Facility, Instance, check_monge_full,
                            is_inf)
from mongecfl.reductions import lot_sizing_to_cfl


def assert_same_solution(inst):
    got = ExactSolver(inst).solve()
    want = ReferenceExactSolver(inst).solve()
    assert got.total_cost == want.total_cost
    assert got.open == want.open
    assert got.assignment.entries == want.assignment.entries
    assert got.assignment.cost == want.assignment.cost
    return got


def random_matrix(rng, m, n, values, inf_share):
    return [[INF if rng.random() < inf_share else rng.choice(values)
             for _ in range(n)] for _ in range(m)]


def random_instance(rng, m, n, costs, max_demand=5, max_capacity=8,
                    max_open_cost=6):
    """Any cost matrix: the recurrence is the same with or without Monge."""
    return Instance([Facility(rng.randint(0, max_open_cost),
                              rng.randint(1, max_capacity))
                     for _ in range(m)],
                    [Client(rng.randint(1, max_demand)) for _ in range(n)],
                    costs)


def test_random_monge_instances():
    rng = random.Random(404)
    infeasible = 0
    for _ in range(150):
        inst = random_monge_instance(rng, rng.randint(1, 5),
                                     rng.randint(1, 5))
        infeasible += is_inf(assert_same_solution(inst).total_cost)
    assert infeasible > 10


def test_ties_and_zero_costs():
    rng = random.Random(405)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        costs = random_matrix(rng, m, n, (0, 1, 2), rng.choice((0, 0.2)))
        assert_same_solution(random_instance(rng, m, n, costs,
                                             max_open_cost=2))


def test_staircase_instances():
    rng = random.Random(406)
    infeasible = 0
    for _ in range(100):
        inst = random_staircase_instance(rng, rng.randint(1, 8))
        infeasible += is_inf(assert_same_solution(inst).total_cost)
    assert infeasible > 5


def test_lot_sizing_instances():
    rng = random.Random(407)
    params = dict(max_cost=200, max_demand=30, max_capacity=60)
    for feasible in (True, True, True, False, False):
        ls = random_lot_sizing(rng, 12, feasible=feasible, **params)
        assert_same_solution(lot_sizing_to_cfl(ls))


def test_value_on_every_state():
    rng = random.Random(408)
    for trial in range(60):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        if trial % 2:
            inst = random_monge_instance(rng, m, n, max_demand=4,
                                         max_capacity=6)
        else:
            costs = random_matrix(rng, m, n, (0, 1, 3), 0.3)
            inst = random_instance(rng, m, n, costs, max_demand=4,
                                   max_capacity=6)
        reference = ReferenceExactSolver(inst)
        solver = ExactSolver(inst)
        for i in range(1, inst.m + 2):
            for j in range(1, inst.n + 1):
                for d in range(inst.demand(j) + 1):
                    assert solver.value(i, j, d) == reference.value(i, j, d)
            assert solver.value(i, inst.n + 1, 0) == 0


def test_600_facilities():
    # 600 levels: long runs of closed facilities, still shallow enough
    # for the recursive reference
    rng = random.Random(409)
    m = 600
    inst = Instance([Facility(rng.randint(0, 3), rng.randint(1, 3))
                     for _ in range(m)],
                    [Client(rng.randint(1, 3)) for _ in range(3)],
                    [[rng.randint(0, 2) for _ in range(3)] for _ in range(m)])
    assert_same_solution(inst)


def test_sweep_counts_stop_at_infinite_costs_and_reach():
    # unit costs from facility 2 are INF, INF, 1, 1: level 2 covers
    # S = 0..4 and sweeps 0, 0, 2, 1, 0 units; level 1 only S = 0,
    # which sweeps all 4 units
    inst = Instance([Facility(1, 4), Facility(1, 4)], [Client(2), Client(2)],
                    [[1, 1], [INF, 1]])
    solver = ExactSolver(inst)
    assert solver.solve().total_cost == 5
    assert (solver.states, solver.u_steps) == (6, 7)
    # the sweep stops before client 2's first unit
    blocked = ExactSolver(Instance([Facility(1, 6)], [Client(1), Client(5)],
                                   [[1, INF]]))
    assert is_inf(blocked.solve().total_cost)
    assert (blocked.states, blocked.u_steps) == (1, 1)


def test_extraction_serves_once_per_open_facility(monkeypatch):
    calls = []
    original = exact.greedy_serve

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(exact, "greedy_serve", counted)
    rng = random.Random(410)
    ls = random_lot_sizing(rng, 12, max_cost=200, max_demand=30,
                           max_capacity=60, feasible=True)
    solution = exact.solve_exact(lot_sizing_to_cfl(ls))
    assert len(calls) == len(solution.open) > 0


def test_monge_witnesses_on_random_matrices():
    rng = random.Random(411)
    found = 0
    for _ in range(3000):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        costs = random_matrix(rng, m, n, (0, 0, 1, 2, 5),
                              rng.choice((0, 0.1, 0.3, 0.6)))
        witness = check_monge_full(costs)
        assert witness == reference_check_monge_full(costs)
        found += witness is not None
    assert 300 < found < 2900


def test_monge_witnesses_on_perturbed_monge_matrices():
    # nearly Monge, so violations sit deep in the scan order; staircase
    # INF patterns and INF perturbations exercise every INF case
    rng = random.Random(412)
    found = 0
    for trial in range(1500):
        m, n = rng.randint(2, 7), rng.randint(2, 7)
        costs = monge_cost_matrix(rng, m, n, 12)
        if trial % 2:  # staircase: facility i serves clients j >= i only
            costs = [[INF if j < i else c for j, c in enumerate(row)]
                     for i, row in enumerate(costs)]
        for _ in range(rng.randint(0, 2)):
            h, k = rng.randrange(m), rng.randrange(n)
            costs[h][k] = rng.choice((0, INF, costs[h][k] + rng.randint(1, 4),
                                      max(0, costs[h][k] - rng.randint(1, 4))))
        witness = check_monge_full(costs)
        assert witness == reference_check_monge_full(costs)
        found += witness is not None
    assert 200 < found < 1400


@pytest.mark.parametrize("costs, expected", [
    ([[INF, 0], [0, 0]], (1, 2, 1, 2, INF, 0)),    # upper row INF first
    ([[0, 0], [0, INF]], (1, 2, 1, 2, INF, 0)),    # lower row INF last
    ([[0, 2], [INF, 0]], None),                    # INF rhs never violates
    ([[INF, INF], [0, 0]], None),                  # INF on both sides
    ([[0, 1, 0], [0, 0, 0], [0, INF, 0]], (1, 2, 2, 3, 1, 0)),
])
def test_monge_witness_inf_cases(costs, expected):
    witness = check_monge_full(costs)
    assert witness == reference_check_monge_full(costs)
    if expected is None:
        assert witness is None
    else:
        assert (witness.h, witness.i, witness.j, witness.k, witness.lhs,
                witness.rhs) == expected
