"""Instance model and Monge verification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mongecfl.model import (INF, Client, Facility, Instance, MongeWitness,
                            check_monge_adjacent, check_monge_full, is_inf,
                            validate_instance)


def test_facility_invariants():
    with pytest.raises(ValueError):
        Facility(-1, 5)
    with pytest.raises(ValueError):
        Facility(0, 0)
    f = Facility(0, 1)
    assert f.open_cost == 0 and f.capacity == 1


def test_instance_accessors(ref1):
    assert ref1.m == 2 and ref1.n == 2
    assert ref1.cost(1, 2) == 2 and ref1.cost(2, 1) == 3
    assert ref1.demand(2) == 3
    assert ref1.total_demand == 5
    assert ref1.total_capacity == 10


def test_validate_ref1_clean(ref1):
    assert validate_instance(ref1) == []


def test_validate_zero_demand(ref1):
    inst = Instance(ref1.facilities, [Client(2), Client(0)], ref1.costs)
    report = validate_instance(inst)
    assert any("demand must be positive" in r for r in report)


def test_validate_dimension_mismatch():
    inst = Instance([Facility(1, 5)] * 2, [Client(1), Client(1)],
                    [[1, 2, 3], [1, 2, 3]])
    report = validate_instance(inst)
    assert any("dimension mismatch" in r for r in report)


def test_validate_capacity_shortfall_is_warning():
    inst = Instance([Facility(1, 1)], [Client(5)], [[1]])
    report = validate_instance(inst)
    assert len(report) == 1
    assert report[0].startswith("warning")


def test_validate_noninteger_cost():
    inst = Instance([Facility(1, 5)], [Client(1)], [[1.5]])
    assert any("nonnegative integer" in r for r in validate_instance(inst))


def test_monge_full_ref1(ref1):
    assert check_monge_full(ref1.costs) is None


def test_monge_full_violation():
    witness = check_monge_full([[2, 1], [1, 2]])
    assert witness == MongeWitness(1, 2, 1, 2, 4, 2)


def test_monge_full_with_inf_passes():
    # 0+0 <= 2+INF under extended arithmetic
    assert check_monge_full([[0, 2], [INF, 0]]) is None
    # one column: no quadruple, so Monge holds vacuously
    assert check_monge_full([[4], [INF], [0]]) is None


def test_monge_full_with_inf_violation():
    # INF + 0 > 0 + 0: infinite lhs with finite rhs is a violation
    witness = check_monge_full([[INF, 0], [0, 0]])
    assert witness is not None
    assert is_inf(witness.lhs) and not is_inf(witness.rhs)


def test_monge_full_first_witness_is_lexicographic():
    costs = [[0, 0, 9], [0, 9, 0], [9, 0, 0]]
    witness = check_monge_full(costs)
    assert witness is not None
    first = min((h, i, j, k)
                for h in range(1, 4) for i in range(h + 1, 4)
                for j in range(1, 4) for k in range(j + 1, 4)
                if costs[h - 1][j - 1] + costs[i - 1][k - 1]
                > costs[h - 1][k - 1] + costs[i - 1][j - 1])
    assert (witness.h, witness.i, witness.j, witness.k) == first


def test_monge_adjacent_examples():
    assert check_monge_adjacent([[1, 2], [3, 1]]) is None
    assert check_monge_adjacent([[2, 1], [1, 2]]) is not None
    with pytest.raises(ValueError, match="infinite entries unsupported"):
        check_monge_adjacent([[0, 2], [INF, 0]])


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.lists(st.integers(0, 20), min_size=5, max_size=5),
                min_size=5, max_size=5))
def test_adjacent_agrees_with_full_on_finite(costs):
    full = check_monge_full(costs)
    adjacent = check_monge_adjacent(costs)
    assert (full is None) == (adjacent is None)
