"""Greedy transport and serving primitives."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from conftest import (ReferenceIntegerServeCurve, ReferenceServeCurve,
                      demand_met, greedy_transport, recompute_flow_cost,
                      reference_demand_met, reference_serve_schedule)
from mongecfl.generate import monge_cost_matrix, random_monge_instance
from mongecfl.kernel import (Flow, ServeCurve, ServeFamily, cost_lcm,
                             serve_schedule)
from mongecfl.model import INF, Client, Facility, Instance, is_inf


def test_greedy_transport_examples():
    flow = greedy_transport((3, 2), (2, 3), [[1, 2], [3, 1]])
    assert flow.entries == {(1, 1): 2, (1, 2): 1, (2, 2): 2}
    assert flow.cost == 6

    flow = greedy_transport((5,), (5,), [[7]])
    assert flow.entries == {(1, 1): 5}
    assert flow.cost == 35

    flow = greedy_transport((2, 3), (2, 3), [[0, 2], [INF, 0]])
    assert flow.entries == {(1, 1): 2, (2, 2): 3}
    assert flow.cost == 0


def test_greedy_transport_inf_edge_flags_cost():
    flow = greedy_transport((2, 3), (3, 2), [[0, 2], [INF, 0]])
    assert is_inf(flow.cost)
    # the flow itself is still returned
    assert sum(flow.entries.values()) == 5


def test_greedy_transport_unbalanced_rejected():
    with pytest.raises(ValueError, match="total supply"):
        greedy_transport((1,), (2,), [[1]])


def test_flow_recompute_cost():
    flow = Flow({(1, 1): 2, (1, 2): Fraction(1, 2)}, None)
    assert recompute_flow_cost(flow, [[3, 4]]) == 8
    assert is_inf(recompute_flow_cost(Flow({(1, 1): 1}, None), [[INF]]))
    # zero-amount entries do not touch infinite edges
    assert recompute_flow_cost(Flow({(1, 1): 0}, None), [[INF]]) == 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 5), st.integers(1, 5))
def test_greedy_transport_conservation(seed, m, n):
    rng = random.Random(seed)
    costs = monge_cost_matrix(rng, m, n, rng.randint(0, 20))
    demands = [rng.randint(0, 6) for _ in range(n)]
    total = sum(demands)
    supplies = [0] * m
    for _ in range(total):
        supplies[rng.randrange(m)] += 1
    flow = greedy_transport(supplies, demands, costs)
    for i in range(1, m + 1):
        assert sum(x for (a, _), x in flow.entries.items() if a == i) == supplies[i - 1]
    for j in range(1, n + 1):
        assert sum(x for (_, b), x in flow.entries.items() if b == j) == demands[j - 1]
    assert recompute_flow_cost(flow, costs) == flow.cost


def test_serve_schedule_serves_the_residual_profile(ref1):
    # budget and capacity cover all residual demand, so the schedule
    # is the demand left after d_met was met right to left
    assert serve_schedule(ref1, 1, 3, 100) == (2, [(1, 2)])
    assert serve_schedule(ref1, 1, 0, 100) == (5, [(2, 3), (1, 2)])
    assert serve_schedule(ref1, 1, 4, 100) == (1, [(1, 1)])
    with pytest.raises(ValueError):
        serve_schedule(ref1, 1, 6, 100)  # d_met exceeds the total demand


def test_serve_schedule_rational_residual(ref1):
    assert serve_schedule(ref1, 1, Fraction(7, 2), 100) == (
        Fraction(3, 2), [(1, Fraction(3, 2))])


def test_demand_met_examples(ref1):
    assert demand_met(ref1, 1, 0, 12) == 5
    assert demand_met(ref1, 2, 0, 9) == 0   # cannot open: f_2 = 10
    assert demand_met(ref1, 1, 0, 8) == Fraction(5, 2)


def test_demand_met_preconditions(ref1):
    with pytest.raises(ValueError):
        demand_met(ref1, 1, -1, 5)
    with pytest.raises(ValueError):
        demand_met(ref1, 1, 0, -1)


def test_demand_met_monotone_and_capped():
    rng = random.Random(11)
    for _ in range(30):
        inst = random_monge_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
        i = rng.randint(1, inst.m)
        cap = inst.facilities[i - 1].capacity
        for d_met in (0, inst.total_demand // 2):
            prev = None
            for b in range(0, 40):
                v = demand_met(inst, i, d_met, b)
                assert v <= cap
                if prev is not None:
                    assert v >= prev
                prev = v
        # raw demand_met is not monotone in d_met: a larger d_met can
        # pre-strip an expensive client that would otherwise block the
        # right-to-left serve.  The cumulative total d_met + DM is the
        # monotone quantity (it is what the bound recurrence relies on).
        budget = rng.randint(0, 40)
        prev = None
        for d_met in range(inst.total_demand + 1):
            v = d_met + demand_met(inst, i, d_met, budget)
            if prev is not None:
                assert v >= prev
            prev = v


def test_demand_met_not_monotone_in_d_met():
    # blocking makes DM nonmonotone in d_met: with nothing met, the
    # expensive client 2 caps the serve at half a unit; with client 2
    # already met, the whole cheap client 1 is served
    from mongecfl.model import Client, Facility, Instance
    inst = Instance([Facility(0, 50)], [Client(10), Client(1)], [[1, 100]])
    assert demand_met(inst, 1, 0, 50) == Fraction(1, 2)
    assert demand_met(inst, 1, 1, 50) == 10


@pytest.mark.parametrize("demands, row, cap, d_met, scale, clients, money", [
    # met demand 2 leaves 4 of client 4; client 2 is cut to 1 unit
    # (money 4 + 9 + 2), before the inf client 1
    ((4, 5, 3, 6), (INF, 2, 3, 1), 8, 2, 1, [4, 3, 2], 15),
    # the same over scale 2, with 3/2 units met: 9/2 + 3 + 1/2 units
    # for money 2 * (9/2 + 9 + 1)
    ((4, 5, 3, 6), (INF, 2, 3, 1), 8, Fraction(3, 2), 2, [4, 3, 2], 29),
    # the capacity binds at the end of client 3; free client 2 gets
    # nothing
    ((2, 3, 4), (5, 0, 2), 4, 0, 1, [3], 8),
])
def test_serve_curve_stops_at_the_capacity(demands, row, cap, d_met, scale,
                                           clients, money):
    """The curve's last breakpoint is (money at the cut, capacity), and
    f is the uncapped reference curve cut at the capacity."""
    inst = Instance([Facility(0, cap)], [Client(d) for d in demands], [row])
    curve = ServeCurve(ServeFamily(inst, 1, range(1, inst.n + 1)),
                       int(d_met * scale), scale)
    assert [j for j, _ in curve.clients] == clients
    assert curve.amount[-1] == cap * curve.unit
    assert curve.saturation == money
    want = ReferenceIntegerServeCurve(inst, 1, range(1, inst.n + 1),
                                      int(d_met * scale), scale, curve.lcm)
    assert want.money[-1] == money
    reference = ReferenceServeCurve(inst, 1, range(1, inst.n + 1), d_met)
    for x in range(money + 3 * scale):
        assert Fraction(curve.served(x), curve.unit) == min(
            cap, reference.served(Fraction(x, scale))), x


def _assert_family_cuts(inst, members, scale):
    """Every met demand's cut of the family equals the integer walk, at
    and just past each of the walk's money breakpoints too, and the
    family's sweep, in int64 and object dtype, equals the walks read
    position by position."""
    family = ServeFamily(inst, 1, members)
    lcm = cost_lcm(inst.costs[0])
    total = sum(inst.demand(j) for j in members) * scale
    mets = range(total + 1) if total <= 60 else sorted(
        {0, total, *random.Random(total).sample(range(total), 40)})
    cuts = []
    for met in mets:
        want = ReferenceIntegerServeCurve(inst, 1, members, met, scale, lcm)
        got = ServeCurve(family, met, scale)
        assert (got.clients, got.amount, got.unit, got.saturation) == (
            want.clients, want.amount, want.unit, want.money[-1]), met
        for money in want.money:
            for x in (money, money + 1):
                assert got.served(x) == want.served(x), (met, x)
        cuts.append((got, want))
    dtypes = [object] + [np.int64] * (max(family.before[-1],
                                          family.money[-1]) * scale < 2**63)
    for dtype in dtypes:
        served, spent = family.sweep(np.array(mets, dtype=dtype), scale,
                                     dtype)
        for (curve, want), row_served, row_spent in zip(
                cuts, served.tolist(), spent.tolist()):
            walked = {j for j, _ in curve.clients}
            for k in range(len(family.clients) + 1):
                b = sum(j in walked for j, _ in family.clients[:k])
                assert row_served[k] * lcm == curve.amount[b]
                assert row_spent[k] == want.money[b]


@pytest.mark.parametrize("demands, row, cap", [
    # the walk reaches the inf client 2 before the capacity binds
    ((2, 3, 4), (1, INF, 2), 10),
    # the capacity binds in client 2, before the inf client 1
    ((2, 3, 4), (INF, 1, 2), 5),
    # the zero-demand client 2 has an infinite cost: skipped, not a stop
    ((2, 0, 4, 0), (1, INF, 2, INF), 10),
    # zero costs before and after the capacity binds
    ((3, 2, 5), (0, 4, 0), 6),
    # costs above int64, and one whose money passes it
    ((2, 3, 4), (2**64, 3 * 2**64, 1), 7),
])
def test_family_cut_matches_integer_walk(demands, row, cap):
    inst = Instance([Facility(0, cap)], [Client(d) for d in demands], [row])
    for scale in (1, 2, 6):
        _assert_family_cuts(inst, range(1, inst.n + 1), scale)


def test_family_cut_matches_integer_walk_on_random_rows():
    """Random rows of inf, zero, small and 2**64 costs, zero demands,
    subsets of the clients as the class and several scales."""
    rng = random.Random(2020)
    for _ in range(300):
        n = rng.randint(1, 7)
        row = [rng.choice((INF, 0, rng.randint(1, 13),
                           rng.randint(1, 3) * 2**64)) for _ in range(n)]
        inst = Instance([Facility(0, rng.randint(1, 15))],
                        [Client(rng.choice((0, rng.randint(1, 7))))
                         for _ in range(n)], [row])
        members = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        _assert_family_cuts(inst, members, rng.choice((1, 2, 6)))


def test_family_served_matches_each_cut():
    """One vectorised read of a sweep's walks at many moneys, in int64
    and object dtype, equals each met demand's own cut ``served``, from
    0 through each walk's breakpoints to past its saturation, on random
    rows of inf, zero, small and 2**64 costs and on an empty class."""
    rng = random.Random(2121)
    for _ in range(300):
        n = rng.randint(1, 7)
        row = [rng.choice((INF, 0, rng.randint(1, 13),
                           rng.randint(1, 3) * 2**64)) for _ in range(n)]
        inst = Instance([Facility(0, rng.randint(1, 15))],
                        [Client(rng.choice((0, rng.randint(1, 7))))
                         for _ in range(n)], [row])
        members = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        scale = rng.choice((1, 2, 6))
        family = ServeFamily(inst, 1, members)
        total = family.before[-1] * scale
        mets = [rng.randint(0, total) for _ in range(rng.randint(1, 5))]
        curves = [ServeCurve(family, met, scale) for met in mets]
        which, money = [], []
        for w, curve in enumerate(curves):
            walk = ReferenceIntegerServeCurve(inst, 1, members, mets[w],
                                              scale, family.lcm)
            points = {0, *walk.money, curve.saturation + 3,
                      *(rng.randint(0, curve.saturation + 3)
                        for _ in range(5))}
            for x in {y + d for y in points for d in (-1, 0, 1) if y + d >= 0}:
                which.append(w)
                money.append(x)
        want = [curves[w].served(x) for w, x in zip(which, money)]
        dtypes = [object] + [np.int64] * (
            (family.before[-1] + family.money[-1] + 1) * scale * family.lcm
            * 2 < 2**63)
        for dtype in dtypes:
            walks = family.sweep(np.array(mets, dtype=dtype), scale, dtype)
            got = family.served(walks, np.array(which),
                                np.array(money, dtype=dtype))
            assert got.dtype == dtype and got.tolist() == want
        none = family.sweep(np.array([], dtype=object), scale, object)
        assert family.served(none, np.array([], dtype=np.int64),
                             np.array([], dtype=object)).size == 0


def test_serve_schedule_stops_at_infinite_cost():
    from mongecfl.model import Client, Facility, Instance
    inst = Instance([Facility(0, 10)], [Client(2), Client(3)], [[0, INF]])
    total, served = serve_schedule(inst, 1, 0, 100)
    # right-to-left serving may not skip client 2
    assert total == 0 and served == []


def _random_amount(rng, top):
    """An int, an integral Fraction or a proper Fraction in [0, top]."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(0, top)
    if kind == 1:
        return Fraction(rng.randint(0, top))
    q = rng.choice((2, 3, 7, 10, 2**61 - 1))
    return Fraction(rng.randint(0, top * q), q)


def test_integer_walk_matches_fraction_walk():
    """Values of the scaled-integer walk equal those of the reference
    Fraction walk, over int and Fraction met demands and budgets,
    infinite and zero costs, and costs above int64; ``demand_met``
    always returns a Fraction, and ``serve_schedule`` the reference's
    types."""
    rng = random.Random(808)
    for _ in range(400):
        m, n = rng.randint(1, 3), rng.randint(1, 5)
        big = rng.random() < 0.2
        costs = [[rng.choice((INF, 0, rng.randint(1, 13),
                              rng.randint(1, 4) * 2**64 if big else 1))
                  for _ in range(n)] for _ in range(m)]
        inst = Instance([Facility(rng.randint(0, 6), rng.randint(1, 9))
                         for _ in range(m)],
                        [Client(rng.randint(0, 6)) for _ in range(n)], costs)
        i = rng.randint(1, m)
        d_met = _random_amount(rng, inst.total_demand)
        budget = _random_amount(rng, 2**66 if big else 80)
        got = demand_met(inst, i, d_met, budget)
        assert type(got) is Fraction
        assert got == reference_demand_met(inst, i, d_met, budget), (
            inst, i, d_met, budget)
        total, schedule = serve_schedule(inst, i, d_met, budget)
        want_total, want_schedule = reference_serve_schedule(inst, i, d_met,
                                                             budget)
        assert (total, type(total)) == (want_total, type(want_total))
        assert schedule == want_schedule
        assert [type(a) for _, a in schedule] == [type(a) for _, a in
                                                  want_schedule]
