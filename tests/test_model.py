"""Instance model and Monge verification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_check_monge_full
from mongecfl import model
from mongecfl.exact import solve_exact
from mongecfl.extensions import ClientPartition, run_two_class_fptas
from mongecfl.fptas import run_fptas
from mongecfl.generate import (monge_cost_matrix, random_lot_sizing,
                               random_two_class_instance,
                               random_windowed_instance)
from mongecfl.model import (INF, Client, Facility, Infeasible, Instance,
                            MongeWitness, check_monge_full, is_inf,
                            validate_instance)
from mongecfl.reductions import LotSizingInstance, lot_sizing_to_cfl


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
    with pytest.raises(ValueError, match="integer"):
        Instance([Facility(1, 5)], [Client(1)], [[1.5]])


def test_validate_negative_cost():
    inst = Instance([Facility(1, 5)], [Client(1)], [[-1]])
    assert validate_instance(inst) == [
        "cost (1,1): must be a nonnegative integer or inf"]


def test_facility_rejects_non_integers():
    for open_cost, capacity, field in (("x", 1, "open_cost"),
                                       (True, 1, "open_cost"),
                                       (0.5, 4, "open_cost"),
                                       (1, 2.5, "capacity"),
                                       (1, True, "capacity"),
                                       (1, None, "capacity")):
        with pytest.raises(ValueError, match=field):
            Facility(open_cost, capacity)


def test_client_rejects_non_integers():
    for args, field in (((1.5,), "demand"), ((True,), "demand"),
                        (("2",), "demand"), ((1, 1.0), "release"),
                        ((1, False), "release"), ((1, None, "2"), "deadline"),
                        ((1, 1, INF), "deadline")):
        with pytest.raises(ValueError, match=field):
            Client(*args)
    # ranges are validate_instance's: a zero demand still constructs
    assert Client(0, 1, 2) == Client(0, release=1, deadline=2)


def test_instance_rejects_non_integer_costs():
    for bad in (1.5, True, "1", None, -INF, Fraction(1)):
        with pytest.raises(ValueError, match=r"cost \(2,1\)"):
            Instance([Facility(1, 5)] * 2, [Client(1)], [[1], [bad]])
    # the instance that validated clean and then broke both solvers
    with pytest.raises(ValueError, match="capacity"):
        Instance([Facility(1, 2.5), Facility(0.5, 4)], [Client(1.5), Client(2)],
                 [[1, 2], [3, 1]])
    assert Instance([Facility(1, 5)], [Client(1)], [[INF]]).costs == ((INF,),)


def test_instance_rejects_non_model_entries():
    """Facilities must be ``Facility`` and clients ``Client`` objects;
    a tuple used to pass the constructor and then end
    ``validate_instance`` in an AttributeError."""
    for facilities, clients, field in (
            ([(1, 5)], [Client(1)], "facility 1"),
            ([Facility(1, 5), None], [Client(1)], "facility 2"),
            ([Facility(1, 5)], [1], "client 1"),
            ([Facility(1, 5)], [Client(1), Facility(1, 5)], "client 2")):
        with pytest.raises(ValueError, match=field):
            Instance(facilities, clients, [[1] * len(clients)] *
                     len(facilities))


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


def test_monge_checkers_reject_ragged_rows():
    for costs in ([[1], [2, 3]], [[1, 2], [3]], [[1, 2], [3, 4], []]):
        with pytest.raises(ValueError, match="rows differ in length"):
            check_monge_full(costs)


@st.composite
def _finite_costs(draw):
    """Random 0-20 entries (almost never Monge), Monge draws, and Monge
    draws with one entry moved, which sit on either side of the
    property."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("random", "monge", "perturbed")))
    if kind == "random":
        row = st.lists(st.integers(0, 20), min_size=n, max_size=n)
        return draw(st.lists(row, min_size=m, max_size=m))
    costs = monge_cost_matrix(random.Random(draw(st.integers(0, 2**32))),
                              m, n, draw(st.integers(0, 30)))
    if kind == "perturbed":
        costs[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] \
            += draw(st.integers(-5, 5))
    return costs


@settings(max_examples=1000, deadline=None)
@given(_finite_costs())
def test_adjacent_agrees_with_full_on_finite(costs):
    """On finite entries the adjacent-pair pass gives the quadruple
    scan's answer, witness included."""
    assert check_monge_full(costs) == reference_check_monge_full(costs)


_NO = [INF, INF, INF, INF]


@pytest.mark.parametrize("costs, expected", [
    # rows with no finite entry, at the top, in the middle and at the end
    ([_NO, [0, 1, 3, 6], [INF, 0, 1, 3]], None),
    ([[0, 1, 3, 6], _NO, [INF, 0, 1, 3], _NO], None),
    ([[0, 1, 3, 6], [INF, 0, 1, 3], _NO, _NO], None),
    # a violation across a row with no finite entry
    ([[0, 2, 1, 5], _NO, [0, 1, 2, 5]], (1, 3, 1, 3, 2, 1)),
    ([[2, 1], [INF, INF], [INF, INF], [1, 2]], (1, 4, 1, 2, 4, 2)),
    # finite blocks whose ends decrease: INF lhs against a finite rhs
    ([[0, 1, 2, INF], [0, 1, INF, INF]], (1, 2, 1, 3, INF, 2)),
    ([[0, 1, 2, 3], [0, 1, 2, INF]], (1, 2, 1, 4, INF, 3)),
    ([[INF, 0, 1, 2], [0, 1, 2, 3]], (1, 2, 1, 2, INF, 0)),
    # an INF hole inside a finite block
    ([[0, INF, 1, 2], [INF, INF, 0, 1]], None),
    ([[0, INF, 1, 2], [INF, 0, 0, 1]], (1, 2, 2, 3, INF, 1)),
    ([[0, 1, 2, 3], [INF, 0, INF, 1], [INF, INF, INF, 0]],
     (1, 2, 2, 3, INF, 2)),
    ([[0, 1, 2, 3], _NO, [0, INF, 1, 2], [INF, INF, 0, 1]],
     (1, 3, 1, 2, INF, 1)),
    # Monge staircases and non-Monge ones, whose witness the all-pairs
    # scan finds (the last one's first witness is not on an adjacent
    # pair)
    ([[0, 1, 3], [INF, 0, 1], [INF, INF, 0]], None),
    ([[0, 1, 3], [INF, 0, 2], [INF, INF, 0]], None),
    ([[0, 1, 3], [INF, 0, 3], [INF, INF, 0]], (1, 2, 2, 3, 4, 3)),
    ([[0, 1, 3, 4], [INF, 0, 1, 2], [INF, INF, 0, 3]], (1, 3, 3, 4, 6, 4)),
])
def test_monge_with_inf_rows_holes_and_ends(costs, expected):
    """Against the quadruple scan, witness included."""
    witness = check_monge_full(costs)
    assert witness == reference_check_monge_full(costs)
    if expected is None:
        assert witness is None
    else:
        assert (witness.h, witness.i, witness.j, witness.k, witness.lhs,
                witness.rhs) == expected


def test_monge_on_zero_capacity_orders():
    """Zero-capacity orders and orders after the last demand reduce to
    rows with no finite entry."""
    ls = LotSizingInstance(6, [(3, 4), (1, 0), (2, 5), (4, 0), (1, 3),
                               (0, 2)],
                           [(1, 0, 2), (2, 0, 0), (3, 0, 3), (4, 0, 1),
                            (5, 0, 0), (6, 0, 0)], [1, 2, 1, 3, 1])
    costs = lot_sizing_to_cfl(ls).costs
    assert [row.count(INF) for row in costs] == [0, 3, 1, 3, 3, 3]
    assert check_monge_full(costs) is None
    rng = random.Random(31)
    for _ in range(300):
        ls = random_lot_sizing(rng, rng.randint(1, 9), max_capacity=2)
        costs = lot_sizing_to_cfl(ls).costs
        assert check_monge_full(costs) is None
        assert reference_check_monge_full(costs) is None


def _staircase(rng, m, n):
    """A Monge matrix cut to finite blocks [a_r, b_r]: ends drawn sorted
    or not, some rows with no finite entry, then up to two entries
    moved (INF holes included)."""
    costs = monge_cost_matrix(rng, m, n, 12)
    starts = [rng.randint(0, n - 1) for _ in range(m)]
    ends = [rng.randint(0, n - 1) for _ in range(m)]
    if rng.random() < 0.7:
        starts.sort()
        ends.sort()
    for r, row in enumerate(costs):
        if rng.random() < 0.15:
            row[:] = [INF] * n
        else:
            row[:] = [c if starts[r] <= j <= max(starts[r], ends[r]) else INF
                      for j, c in enumerate(row)]
    for _ in range(rng.randint(0, 2)):
        h, k = rng.randrange(m), rng.randrange(n)
        costs[h][k] = rng.choice((INF, 0, costs[h][k] + 1))
    return costs


def test_monge_staircases_match_reference():
    rng = random.Random(32)
    found = 0
    for _ in range(4000):
        costs = _staircase(rng, rng.randint(1, 7), rng.randint(1, 7))
        witness = check_monge_full(costs)
        assert witness == reference_check_monge_full(costs)
        found += witness is not None
    assert 800 < found < 3200


def test_monge_check_reads_adjacent_rows_only(monkeypatch):
    """A Monge matrix is decided from its consecutive rows with a finite
    entry: at most m - 1 row-pair passes on lot-sizing reductions,
    windowed instances and each class of a two-class instance."""
    calls = []
    original = model._pair_violated

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(model, "_pair_violated", counted)
    rng = random.Random(33)
    matrices = [lot_sizing_to_cfl(random_lot_sizing(
        rng, horizon, max_cost=200, max_capacity=600, feasible=True)).costs
        for horizon in (160, 320)]
    for _ in range(20):
        matrices.append(random_windowed_instance(
            rng, rng.randint(2, 12), rng.randint(2, 12)).costs)
        inst, s1, s2 = random_two_class_instance(rng, rng.randint(2, 10),
                                                 rng.randint(2, 12))
        for cls in (s1, s2):
            if cls:
                matrices.append([[row[j - 1] for j in cls]
                                 for row in inst.costs])
    for costs in matrices:
        calls.clear()
        assert check_monge_full(costs) is None
        assert len(calls) <= len(costs) - 1


# Small in-range instances with up to two fields replaced by anything:
# ints, floats, bools, INF, None or one-character strings.  The model or
# validate_instance must refuse the input, or every solver must answer
# or report infeasibility.
_ANY = (st.integers(-1, 6) | st.floats(-2, 6) | st.booleans() | st.just(INF)
        | st.none() | st.text(max_size=1))


@st.composite
def _raw_instance(draw):
    m, n = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    cost, small = st.integers(0, 6), st.integers(1, 6)
    window = st.none() | st.integers(1, 3)
    facilities = [[draw(cost), draw(small)] for _ in range(m)]
    clients = [[draw(small), draw(window), draw(window)] for _ in range(n)]
    costs = [[draw(cost | st.just(INF)) for _ in range(n)] for _ in range(m)]
    slots = [(row, k) for rows in (facilities, clients, costs)
             for row in rows for k in range(len(row))]
    for _ in range(draw(st.integers(0, 2)) if slots else 0):
        row, k = draw(st.sampled_from(slots))
        row[k] = draw(_ANY)
    return facilities, clients, costs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_raw_instance())
def test_validated_instances_solve(raw):
    facilities, clients, costs = raw
    try:
        inst = Instance([Facility(*f) for f in facilities],
                        [Client(*c) for c in clients], costs)
    except ValueError:
        return
    if any(not r.startswith("warning") for r in validate_instance(inst)):
        return
    for solve in (solve_exact, lambda inst: run_fptas(inst, Fraction(1, 2))):
        try:
            solve(inst)
        except Infeasible:
            pass
    partition = ClientPartition(range(1, inst.n + 1), ())
    try:
        partition.validate(inst)
    except ValueError:
        # a client released after facility 1 is not release-free: the
        # two-class solver refuses this partition up front
        with pytest.raises(ValueError, match="release-free class"):
            run_two_class_fptas(inst, partition, Fraction(1, 2))
        return
    try:
        run_two_class_fptas(inst, partition, Fraction(1, 2))
    except Infeasible:
        pass
