"""Lot-sizing reductions."""

import random
from fractions import Fraction

import pytest

from conftest import lot_sizing_brute, reduction_problems
from mongecfl import io as mio
from mongecfl.exact import solve_exact
from mongecfl.fptas import solve_fptas
from mongecfl.generate import random_lot_sizing
from mongecfl.model import INF, check_monge_full, is_inf
from mongecfl.oracle import brute_force_optimum
from mongecfl.reductions import (LotSizingInstance, lot_sizing_to_cfl,
                                 multi_item_to_cfl)


def test_lot_sizing_validation():
    with pytest.raises(ValueError, match="horizon"):
        LotSizingInstance(0, [], [], [])
    with pytest.raises(ValueError, match="order slot"):
        LotSizingInstance(2, [(1, 1)], [], [0])
    with pytest.raises(ValueError, match="holding"):
        LotSizingInstance(2, [(1, 1), (1, 1)], [], [])
    with pytest.raises(ValueError, match="period"):
        LotSizingInstance(1, [(1, 1)], [(2, 0, 1)], [])


def test_lot_sizing_rejects_non_integers():
    # int() used to truncate this to orders ((1, 3), (4, 2)), demand 2
    # and holding 0
    with pytest.raises(ValueError, match="cost"):
        LotSizingInstance(2, [(1.9, 3.7), ("4", 2)],
                          [(1, 0, 2.5), (2, 0, 1)], [0.6])
    for path, field, bad in (((0,), "horizon", True),
                             ((1, 0, 0), "cost", 1.9),
                             ((1, 1, 1), "capacity", "5"),
                             ((2, 0, 0), "period", 1.0),
                             ((2, 1, 1), "item", False),
                             ((2, 1, 2), "amount", None),
                             ((3, 0), "holding", True)):
        args = [2, [[1, 5], [1, 5]], [[1, 0, 2], [2, 0, 3]], [2]]
        target = args
        for index in path[:-1]:
            target = target[index]
        target[path[-1]] = bad
        with pytest.raises(ValueError, match=field):
            LotSizingInstance(*args)


def test_two_period_example():
    ls = LotSizingInstance(2, [(1, 5), (1, 5)],
                           [(1, 0, 2), (2, 0, 3)], [2])
    inst = lot_sizing_to_cfl(ls)
    assert inst.costs == ((0, 2), (INF, 0))
    assert [f.open_cost for f in inst.facilities] == [1, 1]
    assert [c.demand for c in inst.clients] == [2, 3]


def test_single_period():
    ls = LotSizingInstance(1, [(4, 9)], [(1, 0, 3)], [])
    inst = lot_sizing_to_cfl(ls)
    assert inst.costs == ((0,),)


def test_holding_cost_sums():
    ls = LotSizingInstance(3, [(1, 9)] * 3,
                           [(1, 0, 1), (2, 0, 1), (3, 0, 1)], [1, 4])
    inst = lot_sizing_to_cfl(ls)
    assert inst.cost(1, 3) == 5   # h_1 + h_2
    assert inst.cost(2, 3) == 4
    assert is_inf(inst.cost(3, 1))


def test_zero_demand_periods_dropped():
    ls = LotSizingInstance(3, [(1, 9)] * 3,
                           [(1, 0, 0), (2, 0, 4), (3, 0, 0)], [1, 1])
    inst = lot_sizing_to_cfl(ls)
    assert inst.n == 1 and inst.demand(1) == 4
    assert inst.m == 3


def test_all_zero_demand_rejected():
    ls = LotSizingInstance(1, [(1, 9)], [(1, 0, 0)], [])
    with pytest.raises(ValueError, match="positive demand"):
        lot_sizing_to_cfl(ls)


def test_zero_capacity_order_unusable():
    ls = LotSizingInstance(2, [(0, 0), (3, 9)],
                           [(1, 0, 1), (2, 0, 1)], [0])
    inst = lot_sizing_to_cfl(ls)
    assert all(is_inf(c) for c in inst.costs[0])
    assert check_monge_full(inst.costs) is None
    # only order 2 is usable, and it cannot reach period 1
    assert is_inf(brute_force_optimum(inst).optimum)


def test_multi_item_requires_single_item_for_plain_reduction():
    ls = LotSizingInstance(2, [(1, 9), (1, 9)],
                           [(2, 0, 1), (2, 1, 4)], [3])
    with pytest.raises(ValueError, match="single item"):
        lot_sizing_to_cfl(ls)


def test_multi_item_identical_columns():
    ls = LotSizingInstance(2, [(1, 9), (1, 9)],
                           [(2, 0, 1), (2, 1, 4)], [3])
    inst = multi_item_to_cfl(ls)
    assert inst.n == 2
    assert [c.demand for c in inst.clients] == [1, 4]
    assert inst.costs[0][0] == inst.costs[0][1] == 3
    assert inst.costs[1][0] == inst.costs[1][1] == 0
    assert check_monge_full(inst.costs) is None


def test_multi_item_single_item_agrees():
    ls = LotSizingInstance(2, [(1, 5), (1, 5)],
                           [(1, 0, 2), (2, 0, 3)], [2])
    assert multi_item_to_cfl(ls).costs == lot_sizing_to_cfl(ls).costs


def test_random_reductions_are_monge():
    rng = random.Random(1234)
    for _ in range(40):
        ls = random_lot_sizing(rng, rng.randint(1, 8))
        assert check_monge_full(lot_sizing_to_cfl(ls).costs) is None


def test_reduction_matches_the_certificate():
    """Long horizons, zero-capacity orders, zero-demand periods and a
    period's demand split over several entries, against the benchmark
    certificate's independent reduction."""
    rng = random.Random(2718)
    zero_capacity = zero_demand = 0
    for _ in range(120):
        ls = random_lot_sizing(rng, rng.randint(1, 80),
                               max_capacity=rng.choice([0, 3, 15]))
        zero_capacity += any(u == 0 for _, u in ls.orders)
        zero_demand += any(a == 0 for _, _, a in ls.demands)
        if rng.random() < 0.5:
            split = [(t, 0, part) for t, _, a in ls.demands
                     for part in (a // 2, a - a // 2)]
            ls = LotSizingInstance(ls.horizon, ls.orders, split, ls.holding)
        inst = lot_sizing_to_cfl(ls)
        assert reduction_problems(mio.lot_sizing_to_dict(ls), inst) == []
    assert zero_capacity and zero_demand


def test_reduction_value_matches_direct_brute_force():
    rng = random.Random(4321)
    for _ in range(25):
        ls = random_lot_sizing(rng, rng.randint(1, 5))
        inst = lot_sizing_to_cfl(ls)
        oracle = brute_force_optimum(inst).optimum
        direct = lot_sizing_brute(ls)
        if direct is None:
            assert is_inf(oracle)
        else:
            assert oracle == direct


def test_results_from_equal_data_share_their_parts():
    """Two reductions of the same data, and the solutions built from
    them, share cost rows, facilities, clients and entry keys."""
    ls = LotSizingInstance(3, [(4, 5), (2, 0), (1, 5)],
                           [(1, 0, 2), (2, 0, 3), (3, 0, 4)], [1, 2])
    a, b = lot_sizing_to_cfl(ls), lot_sizing_to_cfl(ls)
    assert a == b
    for part in ("costs", "facilities", "clients"):
        assert all(x is y for x, y in zip(getattr(a, part), getattr(b, part)))
    for solve in (solve_exact, lambda inst: solve_fptas(inst, Fraction(1, 2))):
        keys_a = list(solve(a).assignment.entries)
        keys_b = list(solve(b).assignment.entries)
        assert keys_a == keys_b and keys_a
        assert all(x is y for x, y in zip(keys_a, keys_b))
