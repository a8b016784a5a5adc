"""Windowed instances and the two-class budget-vector DP."""

import random
from fractions import Fraction

import pytest

from mongecfl.extensions import (ClientPartition, WindowViolation,
                                 check_windowed_monge, run_two_class_fptas,
                                 solve_two_class_fptas, vector_demand_met)
from mongecfl.generate import (random_monge_instance, random_two_class_instance,
                               random_windowed_instance)
from mongecfl.model import (INF, Client, Facility, Instance, MongeWitness,
                            check_monge_full, is_inf)
from mongecfl.oracle import brute_force_optimum
from mongecfl.fptas import solve_fptas


def _windowed(costs, releases, deadlines, demands=None, facilities=None):
    m = len(costs)
    n = len(costs[0])
    demands = demands or [1] * n
    facilities = facilities or [Facility(1, 10)] * m
    clients = [Client(demands[j], releases[j], deadlines[j]) for j in range(n)]
    return Instance(facilities, clients, costs)


def test_partition_validate(ref1):
    ClientPartition((1, 2), ()).validate(ref1)
    with pytest.raises(ValueError, match="every client exactly once"):
        ClientPartition((1,), ()).validate(ref1)
    with pytest.raises(ValueError, match="increasing order"):
        ClientPartition((2, 1), ()).validate(ref1)


def test_partition_release_rules():
    clients = [Client(1, 1, None), Client(1, 2, None), Client(1, 1, None)]
    inst = Instance([Facility(1, 5)] * 2, clients,
                    [[1, 1, 1], [1, 1, 1]])
    # client 3 has release 1 < release 2 of client 2, so within s2 the
    # releases (2, 1) are decreasing and validation must fail
    with pytest.raises(ValueError, match="nondecreasing"):
        ClientPartition((1,), (2, 3)).validate(inst)
    # swapping the classes fixes it
    ClientPartition((1, 3), (2,)).validate(inst)


def test_partition_s1_requires_release_one():
    clients = [Client(1, 2, None)]
    inst = Instance([Facility(1, 5)] * 2, clients, [[1], [1]])
    with pytest.raises(ValueError, match="release-free class"):
        ClientPartition((1,), ()).validate(inst)


def test_windowed_check_passes():
    # client 2 opens at facility 2, so (1,2) is infinite; no all-finite
    # quadruple exists and the window pattern matches exactly
    inst = _windowed([[1, INF], [1, 1]], releases=[1, 2], deadlines=[2, 2])
    assert check_windowed_monge(inst) is None


def test_windowed_check_requires_windows(ref1):
    with pytest.raises(ValueError, match="release date or deadline"):
        check_windowed_monge(ref1)


def test_windowed_check_nonmonotone_errors():
    inst = _windowed([[1, 2], [1, INF]], releases=[1, 1], deadlines=[2, 1])
    with pytest.raises(ValueError, match="two_class"):
        check_windowed_monge(inst)


def test_windowed_check_pattern_violations():
    # finite cost outside the window
    inst = _windowed([[1, 2], [1, 1]], releases=[1, 2], deadlines=[2, 2])
    violation = check_windowed_monge(inst)
    assert isinstance(violation, WindowViolation)
    assert (violation.i, violation.j) == (1, 2)
    # infinite cost inside the window
    inst = _windowed([[1, INF], [1, 1]], releases=[1, 1], deadlines=[2, 2])
    violation = check_windowed_monge(inst)
    assert isinstance(violation, WindowViolation)


def test_windowed_check_monge_violation():
    inst = _windowed([[2, 1], [1, 2]], releases=[1, 1], deadlines=[2, 2])
    witness = check_windowed_monge(inst)
    assert isinstance(witness, MongeWitness)


def test_windowed_random_instances_pass():
    rng = random.Random(42)
    for _ in range(20):
        inst = random_windowed_instance(rng, rng.randint(2, 4),
                                        rng.randint(2, 4))
        assert check_windowed_monge(inst) is None


def _finite_quadruples(costs):
    m, n = len(costs), len(costs[0])
    return [(h, i, j, k) for h in range(m) for i in range(h + 1, m)
            for j in range(n) for k in range(j + 1, n)
            if not any(is_inf(costs[a][b])
                       for a, b in ((h, j), (i, k), (h, k), (i, j)))]


def _first_finite_violation(costs):
    """First violating all-finite quadruple, in check_monge_full's order."""
    for h, i, j, k in _finite_quadruples(costs):
        lhs = costs[h][j] + costs[i][k]
        rhs = costs[h][k] + costs[i][j]
        if lhs > rhs:
            return MongeWitness(h + 1, i + 1, j + 1, k + 1, lhs, rhs)
    return None


def test_windowed_witness_is_first_finite_violation():
    # under monotone windows a quadruple with an infinite entry never
    # violates, so the full check finds the first all-finite violation
    rng = random.Random(4242)
    perturbed = 0
    while perturbed < 100:
        inst = random_windowed_instance(rng, rng.randint(2, 5),
                                        rng.randint(2, 5))
        costs = [list(row) for row in inst.costs]
        quads = _finite_quadruples(costs)
        if not quads:
            continue
        h, i, j, k = rng.choice(quads)
        a, b = rng.choice(((h, j), (i, k)))
        costs[a][b] += (costs[h][k] + costs[i][j] - costs[h][j] - costs[i][k]
                        + rng.randint(1, 5))
        witness = check_windowed_monge(Instance(inst.facilities,
                                                inst.clients, costs))
        assert witness is not None
        assert witness == _first_finite_violation(costs)
        assert witness == check_monge_full(costs)
        perturbed += 1


def test_vector_demand_met_ref1(ref1):
    partition = ClientPartition((1,), (2,))
    assert vector_demand_met(ref1, partition, 1, (0, 0), (9, 2, 6)) == (2, 3)
    # cannot open: f_1 = 3 > 2
    assert vector_demand_met(ref1, partition, 1, (0, 0), (2, 9, 9)) == (0, 0)


def test_vector_demand_met_degenerate(ref1):
    from mongecfl.kernel import demand_met
    partition = ClientPartition((1, 2), ())
    for b in (0, 5, 8, 12):
        t1, t2 = vector_demand_met(ref1, partition, 1, (0, 0), (3, b, 0))
        assert t2 == 0
        assert t1 == demand_met(ref1, 1, 0, 3 + b)


def test_vector_demand_met_capacity_shared():
    inst = Instance([Facility(0, 4)], [Client(3), Client(3)], [[1, 1]])
    partition = ClientPartition((1,), (2,))
    t1, t2 = vector_demand_met(inst, partition, 1, (0, 0), (0, 100, 100))
    assert t1 + t2 <= 4
    assert (t1, t2) == (3, 1)  # class 1 served first


def test_two_class_ref1_fine_grid(ref1):
    partition = ClientPartition((1,), (2,))
    solution = solve_two_class_fptas(ref1, partition, Fraction(1, 100))
    assert solution.total_cost == 11


def test_two_class_degenerate_matches_scalar():
    rng = random.Random(77)
    for _ in range(10):
        inst = random_monge_instance(rng, rng.randint(2, 4),
                                     rng.randint(2, 4), feasible=True)
        partition = ClientPartition(range(1, inst.n + 1), ())
        eps = Fraction(1, 100)
        two = solve_two_class_fptas(inst, partition, eps)
        one = solve_fptas(inst, eps)
        assert Fraction(two.total_cost) == Fraction(one.total_cost)


def test_two_class_approximation():
    rng = random.Random(88)
    for _ in range(8):
        inst, s1, s2 = random_two_class_instance(rng, 3, 3, feasible=True)
        partition = ClientPartition(s1, s2)
        eps = Fraction(1, 2)
        result = run_two_class_fptas(inst, partition, eps)
        opt = brute_force_optimum(inst).optimum
        assert Fraction(result.solution.total_cost) <= (1 + eps) * opt
        assert result.solution.recompute_cost(inst) == result.solution.total_cost
