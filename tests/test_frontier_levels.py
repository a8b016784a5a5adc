"""The two-class frontier, level by level: its candidate and kept
counts, generation corners checked against the reference DP, the
packed-key prune at width, and a known coarse-grid defect."""

import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import ReferenceEntry, certify_solution, reference_prune
from mongecfl import extensions
from mongecfl.extensions import ClientPartition, _prune, run_two_class_fptas
from mongecfl.model import INF, Client, Facility, Infeasible, Instance
from mongecfl.oracle import brute_force_optimum
from test_frontier_equivalence import assert_same_result


def test_levels_count_candidates_and_kept():
    # two facilities (open 1, capacity 2), costs 1, K = 1, endpoint 6.
    # Facility 2: the closed root; class 1 spends 0-1 with class 2
    # spends 0-1, less the all-zero pair: 1 + 3 candidates, none
    # dominated, and (1, 1, 1 | 1, 1) covers at budget sum 3.  Facility
    # 1 (budget sums up to 3): the root opens again with the same 3
    # vectors, which come before the 3 closed copies of facility 2's
    # entries, and those are dropped; the other entries have no budget
    # left to serve anything.
    inst = Instance([Facility(1, 2)] * 2, [Client(1), Client(1)],
                    [[1, 1], [1, 1]])
    result = run_two_class_fptas(inst, ClientPartition((1,), (2,)), 1)
    assert (result.grid.K, result.grid.size) == (1, 7)
    assert result.levels == ((4, 4), (7, 4))
    assert result.solution.open == {2} and result.grid_budget == 3
    # one class: the root serves 1 or 2 units; facility 1 repeats both
    # ahead of facility 2's closed copies
    result = run_two_class_fptas(inst, ClientPartition((1, 2), ()), 1)
    assert result.levels == ((3, 3), (5, 3))
    # facility 2 now has capacity 1: class 1 spend 1 fills it, so that
    # row ends at s2 = 0 and (1, 1, 1 | 1, 0) is never generated; 1 + 2
    # candidates.  Facility 1: the root opens to (1, 0, 1 | 0, 1),
    # (1, 1, 0 | 1, 0) and (1, 1, 1 | 1, 1), and each of facility 2's
    # entries serves its missing class for (2, 1, 1 | 1, 1): 3 closed
    # + 5 open candidates, of which the root and its 3 opens are kept
    inst = Instance([Facility(1, 2), Facility(1, 1)], [Client(1), Client(1)],
                    [[1, 1], [1, 1]])
    result = run_two_class_fptas(inst, ClientPartition((1,), (2,)), 1)
    assert result.levels == ((3, 3), (8, 4))


@pytest.mark.xfail(strict=True, raises=Infeasible,
                   reason="a grid spend s1 serves exactly f(s1) of class 1")
def test_coarse_grid_misses_a_feasible_plan():
    # facilities 1 and 2 hold 7 of class 1's 8 units, and only facility
    # 3 (capacity 3) reaches client 4 (2 units), so it must serve exactly
    # 1 unit of class 1, which costs 1; at eps = 1/2 the grid step is 3,
    # and a class-1 spend of 0 or 3 serves 0 or 3 units
    inst = Instance([Facility(5, 2), Facility(2, 5), Facility(1, 3)],
                    [Client(3), Client(2), Client(3), Client(2, 3)],
                    [[2, 5, 5, INF], [6, 4, 4, INF], [4, 1, 1, 5]])
    partition = ClientPartition((1, 2, 3), (4,))
    assert brute_force_optimum(inst).optimum == 45
    fine = run_two_class_fptas(inst, partition, Fraction(1, 10))
    assert fine.solution.total_cost == 45
    result = run_two_class_fptas(inst, partition, Fraction(1, 2))
    assert Fraction(result.solution.total_cost) <= Fraction(3, 2) * 45
    assert certify_solution(inst, result.solution) == []


def test_class_one_fills_the_capacity():
    # facility 3 has capacity 1, and one grid step of class-1 money fills
    # it with client 3, so class 2 is left no room (the model refuses a
    # capacity of 0, so this is the emptiest room a facility can leave)
    inst = Instance([Facility(1, 3), Facility(1, 2), Facility(2, 1)],
                    [Client(2), Client(2), Client(1)],
                    [[1, 2, 3], [2, 1, 2], [3, 2, 1]])
    for partition in (ClientPartition((3,), (1, 2)),
                      ClientPartition((2, 3), (1,)),
                      ClientPartition((1,), (2, 3))):
        assert_same_result(inst, partition, 1)
    assert_same_result(inst, ClientPartition((3,), (1, 2)), Fraction(1, 4))


def test_facility_too_dear_for_the_grid():
    # facility 2's opening cost is past the grid's endpoint, so no entry
    # may open it and its level has only closed candidates
    inst = Instance([Facility(1, 4), Facility(10**6, 4), Facility(2, 3)],
                    [Client(2), Client(2)], [[1, 2], [1, 1], [3, 1]])
    for partition in (ClientPartition((1, 2), ()),
                      ClientPartition((1,), (2,))):
        result = assert_same_result(inst, partition, Fraction(1, 2))
        assert (result.grid.size - 1) * result.grid.K < 10**6
        assert result.levels[1][0] == result.levels[0][1]


def test_zero_demand_and_zero_cost_clients():
    # clients 1 and 3 have no demand, in either class, and every
    # facility reaches some client for free
    inst = Instance([Facility(0, 3), Facility(2, 4), Facility(1, 3)],
                    [Client(0), Client(2), Client(0), Client(3), Client(1)],
                    [[0, 1, 5, 2, 4], [2, 0, 0, 1, 3], [4, 3, 0, 0, 0]])
    for partition in (ClientPartition((1, 2, 3, 4, 5), ()),
                      ClientPartition((1, 2, 4), (3, 5)),
                      ClientPartition((3, 5), (1, 2, 4)),
                      ClientPartition((2, 3), (1, 4, 5))):
        for eps in (1, Fraction(1, 10)):
            assert_same_result(inst, partition, eps)


def test_infinite_cost_inside_a_class():
    # facility 2's walk stops at client 3 and facility 3's at client 2,
    # each with finite costs left beyond the stop in the same class
    inst = Instance([Facility(2, 6), Facility(1, 4), Facility(3, 5)],
                    [Client(2), Client(1), Client(2), Client(1), Client(2)],
                    [[1, 2, 2, 3, 4], [3, 1, INF, 1, 2], [5, INF, 2, 1, 1]])
    for partition in (ClientPartition((1, 2, 3, 4, 5), ()),
                      ClientPartition((1, 3, 5), (2, 4)),
                      ClientPartition((2, 4), (1, 3, 5)),
                      ClientPartition((1, 2), (3, 4, 5))):
        assert_same_result(inst, partition, 1)
    assert_same_result(inst, ClientPartition((1, 2, 3, 4, 5), ()),
                       Fraction(1, 4))


def test_one_level_on_object_keys(monkeypatch):
    dtypes = []  # per level: the dtype the candidates were formed in

    def spy(b0, b1, b2, d1, d2):
        dtypes.append(np.asarray(d1).dtype)
        return _prune(b0, b1, b2, d1, d2)

    monkeypatch.setattr(extensions, "_prune", spy)
    # facility 2's lcm is 2^64 + 1, so its level's demands are formed
    # over a unit past int64; its walk ends at client 2's INF before it
    # reaches that cost, so it serves whole units, the gcd restores the
    # small scale and facility 1's level is int64 again
    big = 2**64
    inst = Instance([Facility(1, 4), Facility(1, 2), Facility(1, 2)],
                    [Client(2), Client(2), Client(2)],
                    [[1, 1, 3], [big + 1, INF, 1], [2, 2, 2]])
    result = assert_same_result(inst, ClientPartition((1, 2, 3), ()),
                                Fraction(1, 2))
    assert dtypes == [np.int64, object, np.int64]
    assert result.bound < 2**63
    for partition in (ClientPartition((2,), (1, 3)),
                      ClientPartition((3,), (1, 2))):
        dtypes.clear()
        assert_same_result(inst, partition, Fraction(1, 2))
        assert dtypes[:2] == [np.int64, object]


def test_prune_at_width():
    """Over 2^12 candidates with all five keys varying: the ranks take
    14-bit fields, four to a word, so the keys span two packed words."""
    rng = random.Random(12)
    size = 2**12 + 300
    assert 63 // (size.bit_length() + 1) < 5
    for offset in (0, 2**64):
        vectors = []
        for _ in range(size):
            b = [rng.randint(0, 9) for _ in range(3)]
            # demands grow with the budgets, so the kept set stays small
            # enough for the reference; d1 takes over 2^12 values, so its
            # ranks need every bit of a field below the guard
            vectors.append((offset + b[0], b[1], b[2],
                            10**6 * sum(b) + rng.randint(-10**6, 10**6),
                            sum(b) + rng.randint(0, 5)))
        assert len({v[3] for v in vectors}) > 2**12
        vectors += rng.sample(vectors, 200)
        rng.shuffle(vectors)
        entries = [ReferenceEntry(*v, None, k, None, None)
                   for k, v in enumerate(vectors)]
        want = [e.facility for e in reference_prune(entries)]
        assert 1 < len(want) < len(vectors)
        assert _prune(*(list(row) for row in zip(*vectors))) == want
