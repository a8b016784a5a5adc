"""Greedy transport and serving primitives."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (ReferenceServeCurve, greedy_transport,
                      recompute_flow_cost, reference_demand_met,
                      reference_serve_schedule)
from mongecfl.generate import monge_cost_matrix, random_monge_instance
from mongecfl.kernel import (Flow, ServeCurve, cost_lcm, demand_met,
                             greedy_serve, serve_schedule)
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


def test_greedy_serve_examples(ref1):
    r = greedy_serve(ref1, 1, 4, 1, 2)
    assert (r.next_client, r.demand_remaining, r.transport_cost) == (2, 1, 6)
    r = greedy_serve(ref1, 1, 1, 1, 2)
    assert (r.next_client, r.demand_remaining, r.transport_cost) == (1, 1, 1)
    r = greedy_serve(ref1, 1, 5, 1, 2)
    assert (r.next_client, r.demand_remaining, r.transport_cost) == (3, 0, 8)


def test_greedy_serve_preconditions(ref1):
    with pytest.raises(ValueError):
        greedy_serve(ref1, 3, 1, 1, 2)
    with pytest.raises(ValueError):
        greedy_serve(ref1, 1, 1, 1, 3)  # d exceeds demand of client 1
    with pytest.raises(ValueError):
        greedy_serve(ref1, 1, 6, 1, 2)  # u exceeds remaining demand


def test_greedy_serve_all_served_means_no_remainder(ref1):
    r = greedy_serve(ref1, 1, 5, 1, 2)
    assert r.next_client == ref1.n + 1 and r.demand_remaining == 0


def test_greedy_serve_cost_matches_simulation():
    rng = random.Random(7)
    for _ in range(50):
        inst = random_monge_instance(rng, rng.randint(1, 4), rng.randint(1, 4))
        j = rng.randint(1, inst.n)
        d = rng.randint(0, inst.demand(j))
        rest = d + sum(inst.demand(k) for k in range(j + 1, inst.n + 1))
        if rest == 0:
            continue
        u = rng.randint(1, rest)
        i = rng.randint(1, inst.m)
        result = greedy_serve(inst, i, u, j, d)
        # explicit simulation: pour u units into clients j, j+1, ...
        left = u
        cost = 0
        for k in range(j, inst.n + 1):
            avail = d if k == j else inst.demand(k)
            take = min(avail, left)
            if take > 0:
                c = inst.cost(i, k)
                cost = INF if (is_inf(c) or is_inf(cost)) else cost + c * take
            left -= take
            if left == 0:
                break
        assert result.transport_cost == cost


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
    curve = ServeCurve(inst, 1, range(1, inst.n + 1), int(d_met * scale),
                       scale, cost_lcm(inst.costs[0]))
    assert [j for j, _ in curve.clients] == clients
    assert curve.amount[-1] == cap * curve.unit
    assert curve.money[-1] == money
    reference = ReferenceServeCurve(inst, 1, range(1, inst.n + 1), d_met)
    for x in range(money + 3 * scale):
        assert Fraction(curve.served(x), curve.unit) == min(
            cap, reference.served(Fraction(x, scale))), x


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
