"""Tests for the benchmark's output checks and trace accounting.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mongecfl import io as mio
from mongecfl.exact import solve_exact
from mongecfl.extensions import ClientPartition, run_two_class_fptas
from mongecfl.fptas import run_fptas
from mongecfl.generate import random_lot_sizing, random_monge_instance
from mongecfl.model import INF, Client, Facility, Instance
from mongecfl.reductions import lot_sizing_to_cfl

import certify
import workloads
from spans import Tracer

REF_COSTS = [[1, 2], [3, 1]]


def ref_instance(capacity1=5, costs=REF_COSTS) -> Instance:
    """The frozen reference instance: optimum 11, open {1}."""
    return Instance([Facility(3, capacity1), Facility(10, 5)],
                    [Client(2), Client(3)], costs)


ALL_FROM_1 = {(1, 1): Fraction(1), (1, 2): Fraction(1)}


def test_reference_solution_passes():
    inst = ref_instance()
    assert certify.certify(inst, {1}, ALL_FROM_1, 11) == []
    solution = solve_exact(inst)
    assert solution.total_cost == 11 and solution.open == {1}
    assert certify.certify_solution(inst, solution) == []


@pytest.mark.parametrize("inst, opened, entries, cost, expected", [
    (ref_instance(capacity1=4), {1}, ALL_FROM_1, 11, "over capacity"),
    (ref_instance(), {1}, {(1, 1): Fraction(1)}, 11, "served fraction 0"),
    (ref_instance(costs=[[1, INF], [3, 1]]), {1}, ALL_FROM_1, 11,
     "infinite edge"),
    (ref_instance(), {1}, ALL_FROM_1, 12, "recomputed 11"),
    (ref_instance(), set(), ALL_FROM_1, 0, "closed facility 1"),
    (ref_instance(), {1}, ALL_FROM_1, INF, "not an exact finite rational"),
    (ref_instance(), {1}, {(1, 1): Fraction(1), (1, 2): Fraction(1, 2),
                           (2, 2): Fraction(1, 3)}, 11, "fraction 5/6"),
    (ref_instance(), {1}, {(1, 3): Fraction(1), **ALL_FROM_1}, 11,
     "out of range"),
])
def test_corrupted_solutions_rejected(inst, opened, entries, cost, expected):
    problems = certify.certify(inst, opened, entries, cost)
    assert any(expected in p for p in problems), problems


def test_solver_outputs_pass():
    rng = random.Random(7)
    for _ in range(20):
        inst = random_monge_instance(rng, rng.randint(2, 4),
                                     rng.randint(2, 4), feasible=True)
        assert certify.certify_solution(inst, solve_exact(inst)) == []
        result = run_fptas(inst, Fraction(1, 2))
        assert certify.certify_solution(inst, result.solution) == []
        partition = ClientPartition(range(1, inst.n + 1), ())
        two = run_two_class_fptas(inst, partition, 1).solution
        assert certify.certify_solution(inst, two) == []


def test_saved_solution_compared():
    solution = solve_exact(ref_instance())
    data = mio.solution_to_dict(solution)
    assert certify.saved_solution_problems(solution, data) == []
    data["cost"] = "12"
    assert certify.saved_solution_problems(solution, data) == [
        "saved cost differs"]


def test_reduction_check():
    rng = random.Random(3)
    for _ in range(20):
        ls = random_lot_sizing(rng, 8, max_capacity=5)
        data = mio.lot_sizing_to_dict(ls)
        inst = lot_sizing_to_cfl(ls)
        assert certify.reduction_problems(data, inst) == []
        saved = certify.instance_from_json(mio.instance_to_dict(inst))
        assert certify.reduction_problems(data, saved) == []
    data["orders"][0]["cost"] += 1
    assert certify.reduction_problems(data, inst) == [
        "converted facilities differ"]


def test_fill_facts_escalation():
    # criterion-8 seed 3 escalates from base**2 to base**4 at eps = 1/10
    inst = workloads.dense_instance(random.Random(3))
    facts = workloads.fill_facts(inst, run_fptas(inst, Fraction(1, 10)))
    assert facts["exponent"] == 4 and facts["attempts"] == 2
    assert facts["object"] is False and facts["has_inf"] is False


def test_trace_self_times_add_up():
    def inner(x):
        return sum(range(x))

    def hot(x):
        return x + 1

    def outer(x):
        return fake.inner(x) + sum(fake.hot(i) for i in range(100))

    fake = SimpleNamespace(inner=inner, hot=hot, outer=outer)
    tracer = Tracer()
    tracer._wrap_span(fake, "outer", "outer")
    tracer._wrap_span(fake, "inner", "inner")
    tracer._wrap_hot(fake, "hot", "hot", layer=True)
    root = tracer.begin("pass")
    fake.outer(10_000)
    tracer.end(root)
    tracer.uninstall()
    assert fake.outer is outer and fake.hot is hot
    self_ns = tracer.self_ns()
    assert tracer.hot["hot"][0] == 100
    assert set(self_ns) == {"pass", "outer", "inner", "hot"}
    assert all(ns >= 0 for ns in self_ns.values())
    name, start, end, parent, _ = tracer.spans[root]
    assert sum(self_ns.values()) == end - start
    assert [s[3] for s in tracer.spans] == [None, 0, 1]


def test_instance_from_json_reads_inf():
    view = certify.instance_from_json(
        {"facilities": [{"open_cost": 1, "capacity": 2}],
         "clients": [{"demand": 1}], "costs": [["inf"]]})
    assert math.isinf(view.costs[0][0])
