"""Acceptance suite: one test per release criterion.

Each test is self-contained and seeded; a failure here blocks release.
"""

import csv
import random
import statistics
from fractions import Fraction

import pytest

from conftest import (exact_value_function, extended_grid, greedy_transport,
                      lot_sizing_brute)
from mongecfl import io as mio
from mongecfl.cli import main
from mongecfl.extensions import ClientPartition, run_two_class_fptas
from mongecfl.fptas import (BudgetGrid, build_value_table, find_budget_bound,
                            find_min_contribution, max_contribution_feasible,
                            run_fptas, serve_everything_costs)
from mongecfl.generate import (monge_cost_matrix, random_lot_sizing,
                               random_monge_instance,
                               random_two_class_instance)
from mongecfl.model import Client, Facility, Instance, is_inf
from mongecfl.oracle import brute_force_optimum, min_cost_assignment
from mongecfl.exact import solve_exact
from mongecfl.reductions import lot_sizing_to_cfl


def test_criterion_1_exact_equals_oracle():
    """300 random + 100 staircase instances: exact DP = brute force."""
    rng = random.Random(101)
    for _ in range(300):
        inst = random_monge_instance(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert solve_exact(inst).total_cost == brute_force_optimum(inst).optimum
    for _ in range(100):
        inst = lot_sizing_to_cfl(random_lot_sizing(rng, rng.randint(1, 6)))
        assert solve_exact(inst).total_cost == brute_force_optimum(inst).optimum


def test_criterion_2_reference_instance(ref1):
    """The canonical worked instance yields all its frozen values."""
    assert brute_force_optimum(ref1).optimum == 11
    assert solve_exact(ref1).total_cost == 11
    assert find_min_contribution(ref1) == 11
    B = find_budget_bound(ref1)
    assert B == 22 and 11 <= B <= 2 * 11
    result = run_fptas(ref1, 1)
    assert result.grid_budget == 12
    assert result.solution.total_cost == 11


def test_criterion_3_fptas_guarantee():
    """200 feasible instances x 4 epsilons: cost <= (1+eps) * optimum."""
    rng = random.Random(303)
    epsilons = (1, Fraction(1, 2), Fraction(1, 10), Fraction(1, 100))
    for _ in range(200):
        inst = random_monge_instance(rng, rng.randint(2, 5), rng.randint(2, 5),
                                     max_demand=20, feasible=True)
        opt = brute_force_optimum(inst).optimum
        for eps in epsilons:
            cost = Fraction(run_fptas(inst, eps).solution.total_cost)
            assert cost <= (1 + eps) * opt


@pytest.mark.slow
def test_criterion_4_grid_lemma():
    """Rounded table dominates the exact value function on a shifted grid."""
    rng = random.Random(404)
    checked = 0
    for _ in range(50):
        inst = random_monge_instance(rng, rng.randint(1, 3), rng.randint(1, 3),
                                     max_demand=4, feasible=True)
        eps = rng.choice((1, Fraction(1, 2)))
        B = find_budget_bound(inst)
        grid = BudgetGrid.for_instance(inst.m, B, eps)
        grid = extended_grid(grid, 60 + (inst.m + 1) * grid.K)
        table = build_value_table(inst, grid)
        for i in range(1, inst.m + 1):
            for b in range(0, 61):
                shifted = grid.round_up(b + (inst.m - i + 1) * grid.K)
                assert table.value(i, shifted) >= exact_value_function(inst, i, b)
                checked += 1
    assert checked > 0


def test_criterion_5_bound_feasibility_monotone():
    """Per-facility cap feasibility is monotone over a full integer sweep."""
    rng = random.Random(505)
    for _ in range(100):
        inst = random_monge_instance(rng, rng.randint(1, 3), rng.randint(1, 3),
                                     max_demand=4)
        limit = max(serve_everything_costs(inst))
        flags = [max_contribution_feasible(inst, ell)[0]
                 for ell in range(limit + 1)]
        assert flags == sorted(flags)  # False... then True...


def test_criterion_6_greedy_transport_optimal():
    """500 balanced Monge transport instances: greedy = min-cost flow."""
    rng = random.Random(606)
    done = 0
    while done < 500:
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        costs = monge_cost_matrix(rng, m, n, rng.randint(0, 20))
        demands = [rng.randint(0, 6) for _ in range(n)]
        total = sum(demands)
        if total == 0 or total > 30:
            continue
        supplies = [0] * m
        for _ in range(total):
            supplies[rng.randrange(m)] += 1
        greedy = greedy_transport(supplies, demands, costs)
        # independent oracle: min-cost flow over the positive-supply rows
        # (zero-demand clients contribute zero-capacity edges, harmless)
        rows = [i for i in range(m) if supplies[i] > 0]
        inst = Instance([Facility(0, supplies[i]) for i in rows],
                        [Client(d) for d in demands],
                        [costs[i] for i in rows])
        oracle_cost, _ = min_cost_assignment(
            inst, range(1, inst.m + 1), demand_cap=100)
        assert greedy.cost == oracle_cost
        done += 1


def test_criterion_7_reduction_soundness():
    """Lot-sizing reductions are Monge; values match a direct brute force."""
    rng = random.Random(707)
    instances = []
    for _ in range(200):
        ls = random_lot_sizing(rng, rng.randint(1, 8))
        inst = lot_sizing_to_cfl(ls)
        from mongecfl.model import check_monge_full
        assert check_monge_full(inst.costs) is None
        instances.append((ls, inst))
    for ls, inst in instances[:50]:
        value = solve_exact(inst).total_cost
        direct = lot_sizing_brute(ls)
        if direct is None:
            assert is_inf(value)
        else:
            assert value == direct


def test_criterion_8_runtime_scaling(tmp_path):
    """Median FPTAS wall time grows by a factor in [5, 20] from eps=0.1
    to eps=0.01 on fixed 8x8 instances, recorded through the bench CSV."""
    for seed in (1, 3, 6, 7, 9):
        rng = random.Random(seed)
        costs = monge_cost_matrix(rng, 8, 8, 8)
        clients = [Client(rng.randint(250, 500)) for _ in range(8)]
        total = sum(c.demand for c in clients)
        facilities = [Facility(rng.randint(500, 1500),
                               rng.randint(total // 8, total // 2))
                      for _ in range(8)]
        mio.save_instance(Instance(facilities, clients, costs),
                          tmp_path / f"bench{seed}.json")
    csv_path = tmp_path / "scaling.csv"
    code = main(["bench", "--suite", str(tmp_path / "bench*.json"),
                 "--epsilons", "1/10,1/100", "--oracle-max-m", "0",
                 "--exact-max-demand", "0", "--csv", str(csv_path)])
    assert code == 0
    walls = {}
    with open(csv_path, newline="") as handle:
        for row in csv.DictReader(handle):
            if row["algorithm"] == "fptas":
                walls.setdefault(row["instance"], {})[row["epsilon"]] = \
                    float(row["wall_ms"])
    ratios = [w["1/100"] / w["1/10"] for w in walls.values()]
    assert len(ratios) == 5
    assert 5 <= statistics.median(ratios) <= 20


def test_criterion_9_two_class():
    """Degenerate partitions match the scalar FPTAS; windowed instances
    stay within (1+eps) of the oracle."""
    rng = random.Random(909)
    eps = Fraction(1, 100)
    for _ in range(100):
        inst = random_monge_instance(rng, rng.randint(1, 4), rng.randint(1, 4),
                                     feasible=True)
        partition = ClientPartition(range(1, inst.n + 1), ())
        two = run_two_class_fptas(inst, partition, eps).solution
        one = run_fptas(inst, eps).solution
        assert Fraction(two.total_cost) == Fraction(one.total_cost)
    eps = Fraction(1, 2)
    for _ in range(50):
        inst, s1, s2 = random_two_class_instance(rng, rng.randint(2, 4),
                                                 rng.randint(2, 4),
                                                 feasible=True)
        partition = ClientPartition(s1, s2)
        cost = Fraction(run_two_class_fptas(inst, partition, eps)
                        .solution.total_cost)
        assert cost <= (1 + eps) * brute_force_optimum(inst).optimum
