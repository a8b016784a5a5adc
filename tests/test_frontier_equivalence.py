"""The two-class frontier DP returns exactly the reference's result.

The reference (``tests/conftest.py``) expands every grid spend pair,
re-serves each one from scratch and prunes by pairwise ``Fraction``
dominance.  The library prunes on integer keys in numpy blocks, serves
from breakpoint curves, skips candidates that are strictly dominated
or over the best cover's budget, and rebuilds schedules lazily; none
of that may change a single field of the result.
"""

import math
import random
from fractions import Fraction

import pytest

import conftest
from conftest import (ReferenceEntry, reference_prune,
                      reference_run_two_class, vector_demand_met)
from mongecfl import extensions
from mongecfl.extensions import ClientPartition, _prune, run_two_class_fptas
from mongecfl.generate import random_monge_instance, random_two_class_instance
from mongecfl.model import INF, Client, Facility, Instance


def assert_same_result(inst, partition, eps):
    got = run_two_class_fptas(inst, partition, eps)
    want = reference_run_two_class(inst, partition, eps)
    assert got.solution.open == want.solution.open
    assert got.solution.assignment.entries == want.solution.assignment.entries
    assert got.solution.assignment.cost == want.solution.assignment.cost
    assert got.solution.total_cost == want.solution.total_cost
    assert got.budget_vector == want.budget_vector
    assert got.grid_budget == want.grid_budget
    assert (got.bound, got.grid) == (want.bound, want.grid)
    return got


def test_criterion_9_draws():
    rng = random.Random(909)  # the acceptance test's draws, in its order
    for _ in range(100):
        inst = random_monge_instance(rng, rng.randint(1, 4), rng.randint(1, 4),
                                     feasible=True)
        assert_same_result(inst, ClientPartition(range(1, inst.n + 1), ()),
                           Fraction(1, 100))
    for _ in range(50):
        inst, s1, s2 = random_two_class_instance(rng, rng.randint(2, 4),
                                                 rng.randint(2, 4),
                                                 feasible=True)
        assert_same_result(inst, ClientPartition(s1, s2), Fraction(1, 2))


@pytest.mark.parametrize("seed", range(10))
def test_benchmark_degenerate_draws(seed):
    rng = random.Random(seed)
    inst = random_monge_instance(rng, rng.randint(3, 4), rng.randint(3, 4),
                                 feasible=True)
    assert_same_result(inst, ClientPartition(range(1, inst.n + 1), ()),
                       Fraction(1, 100))


@pytest.mark.parametrize("seed", range(5))
def test_benchmark_split_draws(seed):
    rng = random.Random(seed)
    while True:
        inst, s1, s2 = random_two_class_instance(rng, 4, rng.randint(3, 4),
                                                 feasible=True)
        if s1 and s2:
            break
    assert_same_result(inst, ClientPartition(s1, s2), Fraction(1, 2))


@pytest.fixture
def reference_levels(monkeypatch):
    """Records (sorted candidates, kept) of every reference prune."""
    levels = []

    def spy(entries):
        kept = reference_prune(entries)
        levels.append((list(entries), kept))
        return kept

    monkeypatch.setattr(conftest, "reference_prune", spy)
    return levels


def _vector(e):
    return (e.b0, e.b1, e.b2, e.d1, e.d2)


def test_duplicate_vectors_keep_the_first(reference_levels):
    # facilities 2 and 3 are interchangeable for client 2: opening 2 from
    # the closed-3 entry and keeping 3 open give equal vectors, and the
    # one generated first (from the earlier frontier entry) is kept
    inst = Instance([Facility(1, 5)] * 3, [Client(2), Client(2)],
                    [[1, INF], [INF, 1], [INF, 1]])
    partition = ClientPartition((1,), (2,))
    result = assert_same_result(inst, partition, Fraction(1, 2))
    assert result.solution.open == {1, 2}
    assert any(a.facility != b.facility and _vector(a) == _vector(b)
               for candidates, _ in reference_levels
               for a, b in zip(candidates, candidates[1:]))


def test_equal_budgets_different_demands(reference_levels):
    inst = Instance([Facility(2, 4)] * 3, [Client(3), Client(3)],
                    [[1, 1], [2, 1], [1, 2]])
    partition = ClientPartition((1,), (2,))
    assert_same_result(inst, partition, Fraction(1, 4))
    assert any(a.budget_sum == b.budget_sum and (a.b0, a.b1) == (b.b0, b.b1)
               and (a.d1, a.d2) != (b.d1, b.d2)
               for _, kept in reference_levels
               for a, b in zip(kept, kept[1:]))


def test_zero_cost_clients():
    inst = Instance([Facility(0, 3), Facility(2, 4), Facility(1, 2)],
                    [Client(2), Client(1), Client(3)],
                    [[0, 2, 4], [1, 0, 3], [3, 1, 0]])
    for partition in (ClientPartition((1, 2, 3), ()),
                      ClientPartition((1, 3), (2,)),
                      ClientPartition((2,), (1, 3))):
        for eps in (1, Fraction(1, 10)):
            assert_same_result(inst, partition, eps)


def test_zero_budget_cover_empties_the_frontier():
    # facility 3 opens and serves everything for free, so the best cover
    # has budget sum 0 and no later entry can stay on the frontier
    inst = Instance([Facility(1, 5), Facility(2, 5), Facility(0, 5)],
                    [Client(2), Client(3)], [[1, 2], [1, 1], [0, 0]])
    for partition in (ClientPartition((1, 2), ()),
                      ClientPartition((1,), (2,))):
        result = assert_same_result(inst, partition, Fraction(1, 2))
        assert result.solution.open == {3} and result.grid_budget == 0


def test_infinite_cost_stops_the_walk():
    # facility 2 reaches client 3 but its walk stops at client 2's INF,
    # so client 1 stays out of reach although its cost is finite
    inst = Instance([Facility(3, 6), Facility(1, 6)],
                    [Client(2), Client(2), Client(2)],
                    [[2, 1, 3], [1, INF, 1]])
    for partition in (ClientPartition((1, 2, 3), ()),
                      ClientPartition((1, 3), (2,)),
                      ClientPartition((1,), (2, 3))):
        assert_same_result(inst, partition, Fraction(1, 10))
    assert vector_demand_met(inst, ClientPartition((1, 2, 3), ()), 2,
                             (0, 0), 100, 0) == (2, 0)


def test_coprime_costs_compound_denominators(reference_levels):
    # every level divides by costs coprime to those of the other rows,
    # so the demands' common denominator gains a factor from each row
    rows = [[19, 23, 29], [13, 17, 31], [7, 11, 37]]
    inst = Instance([Facility(2, 4)] * 3, [Client(3), Client(5), Client(2)],
                    rows)
    for partition, eps in ((ClientPartition((1, 2, 3), ()), 1),
                           (ClientPartition((1, 2, 3), ()), Fraction(1, 2)),
                           (ClientPartition((1,), (2, 3)), 1),
                           (ClientPartition((2, 3), (1,)), 1)):
        reference_levels.clear()
        assert_same_result(inst, partition, eps)
        candidates, _ = reference_levels[-1]
        scale = math.lcm(*(d.denominator for e in candidates
                           for d in (e.d1, e.d2)))
        assert all(math.gcd(scale, math.prod(row)) > 1 for row in rows)


def test_keys_above_int64(monkeypatch):
    widths = []  # per level: does a scaled demand key pass int64?

    def spy(b0, b1, b2, d1, d2):
        widths.append(max(*d1, *d2) >= 2**63)
        return _prune(b0, b1, b2, d1, d2)

    monkeypatch.setattr(extensions, "_prune", spy)
    big = 2**64
    inst = Instance([Facility(big, 5), Facility(3 * big, 5)],
                    [Client(2), Client(3)],
                    [[big, 2 * big], [3 * big, big]])
    for partition in (ClientPartition((1, 2), ()),
                      ClientPartition((1,), (2,))):
        result = assert_same_result(inst, partition, Fraction(1, 2))
        assert result.bound > 2**63
    # budgets stay small, but the last level divides by the odd cost
    # 2^64 + 1, so only there do the scaled demand keys pass int64
    inst = Instance([Facility(1, 5), Facility(2, 4), Facility(1, 4)],
                    [Client(2), Client(3)],
                    [[big + 1, 2 * big + 1], [3, 5], [7, 11]])
    for partition in (ClientPartition((1,), (2,)),
                      ClientPartition((2,), (1,))):
        widths.clear()
        result = assert_same_result(inst, partition, Fraction(1, 2))
        assert widths == [False, False, True]
        assert result.bound < 2**63


def test_prune_matches_reference_order():
    """Duplicates, equal budgets and both key widths, over several
    blocks; the reference keeps the first of equal vectors."""
    rng = random.Random(5)
    for offset, denominators in ((0, (1, 2, 3)), (2**64, (1, 2)),
                                 (0, (2**61 - 1, 2**31 - 1))):
        for size in (1, 7, 600):
            vectors = [(offset + rng.randint(0, 4), rng.randint(0, 4),
                        rng.randint(0, 3),
                        Fraction(rng.randint(0, 6), rng.choice(denominators)),
                        Fraction(rng.randint(0, 6), rng.choice(denominators)))
                       for _ in range(size)]
            vectors += rng.sample(vectors, len(vectors) // 3)
            rng.shuffle(vectors)
            entries = [ReferenceEntry(*v, None, k, None, None)
                       for k, v in enumerate(vectors)]
            want = [e.facility for e in reference_prune(entries)]
            b0, b1, b2, d1, d2 = (list(col) for col in zip(*vectors))
            # _prune takes integer demands: one common scale keeps
            # their order
            scale = math.lcm(*(d.denominator for d in d1 + d2))
            got = _prune(b0, b1, b2, [int(d * scale) for d in d1],
                         [int(d * scale) for d in d2])
            assert got == want
