"""The two-class frontier, level by level: its candidate and kept
counts, generation corners checked against the reference DP, both
prune paths (rank grid and packed words) against the reference prune,
a wide level end to end, and a known coarse-grid defect."""

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


@pytest.fixture
def prune_paths(monkeypatch):
    """The path each ``_prune`` call with a varying key took: "grid",
    or "packed" where the rank grid would exceed its cell cap."""
    paths = []
    grid_prune = extensions._grid_prune

    def spy(ranks):
        kept = grid_prune(ranks)
        paths.append("packed" if kept is None else "grid")
        return kept

    monkeypatch.setattr(extensions, "_grid_prune", spy)
    return paths


def reference_kept(vectors):
    entries = [ReferenceEntry(*v, None, k, None, None)
               for k, v in enumerate(vectors)]
    return [e.facility for e in reference_prune(entries)]


def test_prune_at_width(monkeypatch, prune_paths):
    """Over 2^12 candidates with all five keys varying: the ranks take
    14-bit fields, four to a word, so the keys span two packed words.
    The rank grid has 11 * 11 * 11 * ~51 cells, under its cap, so the
    packed words only run with the cap cut to nothing."""
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
        want = reference_kept(vectors)
        assert 1 < len(want) < len(vectors)
        rows = [list(row) for row in zip(*vectors)]
        assert _prune(*rows) == want
        with monkeypatch.context() as cap:
            cap.setattr(extensions, "_GRID_CELLS_PER_CANDIDATE", 0)
            cap.setattr(extensions, "_GRID_CELLS_EXTRA", 0)
            assert _prune(*rows) == want
    assert prune_paths == ["grid", "packed"] * 2


def test_prune_paths_match_reference(prune_paths):
    """Seeded levels with 0 to 5 varying keys, duplicates and keys past
    2^63 and 2^64: small key ranges fit the rank grid, wide ones over
    several keys exceed its cap and take the packed words."""
    rng = random.Random(28)
    varying_counts = set()
    for _ in range(600):
        varying = rng.sample(range(5), rng.randint(0, 5))
        spans = [rng.choice((1, 3, 60)) if k in varying else 0
                 for k in range(5)]
        offset = rng.choice((0, 2**63, 2**64))
        vectors = [tuple((offset if k in (0, 3) else 0) + rng.randint(0, s)
                         for k, s in enumerate(spans))
                   for _ in range(rng.randint(1, 90))]
        vectors += rng.choices(vectors, k=rng.randint(0, 20))
        rng.shuffle(vectors)
        varying_counts.add(sum(len(set(key)) > 1 for key in zip(*vectors)))
        assert _prune(*(list(row) for row in zip(*vectors))) == \
            reference_kept(vectors)
    assert varying_counts == set(range(6))
    assert {"grid", "packed"} <= set(prune_paths)


def test_prune_single_and_equal_candidates(prune_paths):
    # no key varies: the first candidate is kept, and no grid is built
    assert _prune([7], [0], [2**70], [3], [0]) == [0]
    assert _prune([1] * 3, [2] * 3, [0] * 3, [5] * 3, [1] * 3) == [0]
    assert prune_paths == []
    # candidates 0 and 2 are equal: only the first is kept, and it comes
    # after candidate 1, whose b0 is smaller at the same budget sum
    assert _prune([1, 0, 1], [0, 1, 0], [0, 0, 0], [5, 5, 5],
                  [0, 0, 0]) == [1, 0]
    assert prune_paths == ["grid"]


def test_prune_cell_holding_several_values(prune_paths):
    # d1 has the most ranks, so it is the value over a b0 axis.  Cell
    # b0 = 0 holds d1 = 3, 5, 1 and 5 again: only the first d1 = 5 is
    # kept.  Cell b0 = 1 holds d1 = 6 and 2: d1 = 6 beats everything in
    # the cell below and is kept, while d1 = 2 is beaten by both.
    vectors = [(0, 0, 0, 3, 0), (0, 0, 0, 5, 0), (1, 0, 0, 6, 0),
               (0, 0, 0, 1, 0), (1, 0, 0, 2, 0), (0, 0, 0, 5, 0)]
    assert reference_kept(vectors) == [1, 2]
    assert _prune(*(list(row) for row in zip(*vectors))) == [1, 2]
    assert prune_paths == ["grid"]


def test_width_instance_at_cost_multiplier_3(prune_paths):
    """A wide split level: 962,451 candidates, 40,523 kept.  The first
    level's 883 candidates vary in all five keys over a grid of 103k
    cells, past the cap, so it takes the packed words; the wide levels
    fit the rank grid."""
    costs = [(2, INF, INF, INF, INF), (4, 5, 2, INF, INF),
             (5, 6, 3, INF, INF), (3, 4, 1, 3, 3)]
    inst = Instance([Facility(3, 6), Facility(0, 1), Facility(0, 6),
                     Facility(2, 5)],
                    [Client(d) for d in (3, 2, 1, 3, 1)],
                    [[c if c == INF else 3 * c for c in row]
                     for row in costs])
    result = run_two_class_fptas(inst, ClientPartition((1,), (2, 3, 4, 5)),
                                 Fraction(1, 10))
    assert result.levels == ((883, 883), (71077, 12388), (962451, 40523),
                             (329413, 41828))
    assert result.solution.total_cost == 95
    assert certify_solution(inst, result.solution) == []
    assert prune_paths == ["packed", "grid", "grid", "grid"]
