"""Command-line interface: exit codes, file outputs, reports."""

import copy
import csv
import json
import random
from fractions import Fraction
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mongecfl import cli
from mongecfl import io as mio
from mongecfl.cli import _ratio, main
from mongecfl.exact import Solution
from mongecfl.extensions import ClientPartition
from mongecfl.generate import random_monge_instance, random_two_class_instance
from mongecfl.model import INF, Client, Facility, Instance, check_monge_full
from test_frontier_equivalence import assert_same_result


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_ref1(tmp_path):
    inst = Instance([Facility(3, 5), Facility(10, 5)],
                    [Client(2), Client(3)], [[1, 2], [3, 1]])
    path = tmp_path / "ref1.json"
    mio.save_instance(inst, path)
    return str(path)


def test_solve_exact(tmp_path, capsys):
    path = write_ref1(tmp_path)
    out_path = tmp_path / "sol.json"
    code, out, _ = run(capsys, "solve", "--input", path,
                       "--output", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["algorithm"] == "exact"
    assert report["cost"] == "11"
    data = json.loads(out_path.read_text())
    assert data["open"] == [1] and data["cost"] == "11"


def test_solve_fptas(tmp_path, capsys):
    path = write_ref1(tmp_path)
    code, out, _ = run(capsys, "solve", "--input", path,
                       "--algorithm", "fptas", "--epsilon", "1")
    assert code == 0
    report = json.loads(out)
    assert Fraction(report["cost"]) <= 22
    assert report["bound"] == 22
    assert report["grid_step"] == 4
    assert report["grid_budget"] == 12


def test_solve_fptas_all_zero_level_above_int64(tmp_path, capsys):
    """Facility 2 cannot open within the grid, so its level is all zero
    while its unit, the lcm of its costs, passes 2**63; the fill kept
    that row int64 and overflowed dividing it by the unit."""
    inst = Instance([Facility(0, 10), Facility(10**30, 10)],
                    [Client(1), Client(1)],
                    [[1, 1], [2**61 - 1, 2**31 - 1]])
    path = tmp_path / "inst.json"
    mio.save_instance(inst, path)
    for algorithm in ("exact", "fptas"):
        code, out, err = run(capsys, "solve", "--input", str(path),
                             "--algorithm", algorithm, "--epsilon", "1/2")
        assert (code, err) == (0, ""), algorithm
        assert json.loads(out)["cost"] == "2"


def _above_int64_level(tmp_path):
    """One facility and one client at cost 2**64: the two-class budgets
    of the opened level are object arrays, over an int64 root level."""
    inst = Instance([Facility(0, 1)], [Client(1)], [[2**64]])
    path = tmp_path / "inst.json"
    mio.save_instance(inst, path)
    return inst, str(path)


def test_solve_two_class_level_above_int64(tmp_path, capsys):
    """The extraction subtracted an int64 parent budget from an object
    one, which overflowed into a traceback."""
    _, path = _above_int64_level(tmp_path)
    for algorithm in ("fptas", "two-class"):
        code, out, err = run(capsys, "solve", "--input", path,
                             "--algorithm", algorithm, "--epsilon", "1/2")
        assert (code, err) == (0, ""), algorithm
        assert json.loads(out)["cost"] == "18446744073709551616"


def test_two_class_level_above_int64_matches_reference(tmp_path):
    inst, _ = _above_int64_level(tmp_path)
    result = assert_same_result(inst, ClientPartition([1], []),
                                Fraction(1, 2))
    assert result.solution.total_cost == 2**64


def test_solve_fptas_missing_epsilon(tmp_path, capsys):
    path = write_ref1(tmp_path)
    code, _, err = run(capsys, "solve", "--input", path,
                       "--algorithm", "fptas")
    assert code == 1
    assert "epsilon" in err


def test_solve_two_class_with_partition(tmp_path, capsys):
    path = write_ref1(tmp_path)
    part = tmp_path / "part.json"
    part.write_text(json.dumps({"s1": [1, 2], "s2": []}))
    code, out, _ = run(capsys, "solve", "--input", path,
                       "--algorithm", "two-class", "--epsilon", "1/100",
                       "--partition", str(part))
    assert code == 0
    assert json.loads(out)["cost"] == "11"


def test_solve_infeasible_exit_2(tmp_path, capsys):
    inst = Instance([Facility(1, 2)], [Client(5)], [[1]])
    path = tmp_path / "bad.json"
    mio.save_instance(inst, path)
    for extra, epsilon in (([], None),
                           (["--algorithm", "fptas", "--epsilon", "1"], "1")):
        code, out, _ = run(capsys, "solve", "--input", str(path), *extra)
        assert code == 2
        report = json.loads(out)
        assert report["cost"] == "inf"
        assert report["epsilon"] == epsilon
        assert isinstance(report["wall_ms"], float)


def test_solve_input_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("not json")
    code, _, err = run(capsys, "solve", "--input", str(path))
    assert code == 1 and "cannot read" in err


def test_solve_verify_with_oracle(tmp_path, capsys):
    path = write_ref1(tmp_path)
    code, out, _ = run(capsys, "solve", "--input", path,
                       "--algorithm", "fptas", "--epsilon", "1",
                       "--verify-with-oracle")
    assert code == 0
    report = json.loads(out)
    assert report["oracle_cost"] == "11"
    assert Fraction(report["ratio"]) <= 2


def write_zero_optimum(tmp_path):
    inst = Instance([Facility(0, 5)], [Client(3)], [[0]])
    path = tmp_path / "zero.json"
    mio.save_instance(inst, path)
    return str(path)


def test_solve_verify_with_oracle_zero_optimum(tmp_path, capsys):
    path = write_zero_optimum(tmp_path)
    for extra in ([], ["--algorithm", "fptas", "--epsilon", "1/10"]):
        code, out, _ = run(capsys, "solve", "--input", path,
                           "--verify-with-oracle", *extra)
        assert code == 0
        report = json.loads(out)
        assert report["cost"] == report["oracle_cost"] == "0"
        assert report["ratio"] == "1"


def one_line_error(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


def test_solve_verify_with_oracle_over_demand_cap(tmp_path, capsys):
    inst = Instance([Facility(1, 300)], [Client(201)], [[1]])
    path = tmp_path / "big.json"
    mio.save_instance(inst, path)
    code, out, err = run(capsys, "solve", "--input", str(path),
                         "--verify-with-oracle")
    assert code == 1 and out == ""
    assert one_line_error(err) and "oracle" in err


def opens_both(inst):
    """ref1 served by both facilities: cost 3 + 10 + 2 + 3 = 18, against
    the optimum 11."""
    return Solution.from_served(inst, [(1, 1, 2), (2, 2, 3)])


@pytest.mark.parametrize("algorithm, solver, wrap", [
    ("exact", "solve_exact", lambda real: lambda inst: opens_both(inst)),
    ("fptas", "run_fptas", lambda real: lambda inst, eps: replace(
        real(inst, eps), solution=opens_both(inst))),
])
def test_solve_verify_with_oracle_fails_a_bad_ratio(tmp_path, capsys,
                                                    monkeypatch, algorithm,
                                                    solver, wrap):
    monkeypatch.setattr(cli, solver, wrap(getattr(cli, solver)))
    out_path = tmp_path / "sol.json"
    code, out, err = run(capsys, "solve", "--input", write_ref1(tmp_path),
                         "--algorithm", algorithm, "--epsilon", "1/2",
                         "--output", str(out_path), "--verify-with-oracle")
    guarantee = "1" if algorithm == "exact" else "3/2"
    assert code == 4 and one_line_error(err)
    assert err == (f"error: cost 18 exceeds the guarantee, {guarantee} times "
                   "the oracle's optimum 11\n")
    report = json.loads(out)
    assert (report["cost"], report["oracle_cost"]) == ("18", "11")
    assert report["ratio"] == "18/11"
    assert not out_path.exists()


def write_raw(tmp_path, costs, open_cost=1):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({
        "facilities": [{"open_cost": open_cost, "capacity": 5}] * 2,
        "clients": [{"demand": 1, "release": 1, "deadline": 2}] * 2,
        "costs": costs}))
    return str(path)


def test_check_ragged_cost_rows(tmp_path, capsys):
    path = write_raw(tmp_path, [[1, 2], [1]])
    for mode in ("full", "windowed"):
        code, _, err = run(capsys, "check", "--input", path, "--mode", mode)
        assert code == 1
        assert one_line_error(err) and "dimension mismatch" in err


def test_convert_single_demand_ragged_cost_rows(tmp_path, capsys):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({
        "facilities": [{"open_cost": 2, "capacity": 4},
                       {"open_cost": 1, "capacity": 3}],
        "clients": [{"demand": 3}],
        "costs": [[1, 3], [1]]}))
    out_path = tmp_path / "converted.json"
    code, out, err = run(capsys, "convert", "--from", "single-demand",
                         "--input", str(path), "--output", str(out_path))
    assert code == 1 and out == ""
    assert one_line_error(err) and "dimension mismatch" in err
    assert not out_path.exists()


def test_convert_single_demand(tmp_path, capsys):
    inst = Instance([Facility(2, 4), Facility(1, 3), Facility(5, 9)],
                    [Client(3)], [[4], [INF], [0]])
    path = tmp_path / "single.json"
    mio.save_instance(inst, path)
    out_path = tmp_path / "converted.json"
    code, _, err = run(capsys, "convert", "--from", "single-demand",
                       "--input", str(path), "--output", str(out_path))
    assert code == 0 and err == ""
    assert mio.load_instance(out_path) == inst


def test_string_open_cost(tmp_path, capsys):
    path = write_raw(tmp_path, [[1, 2], [1, 1]], open_cost="3")
    for argv in (["solve"], ["check"]):
        code, out, err = run(capsys, *argv, "--input", path)
        assert code == 1 and out == ""
        assert one_line_error(err) and "open_cost" in err


def test_ratio_undefined_when_only_the_optimum_is_zero():
    assert _ratio(0, 0) == "1"
    assert _ratio(Fraction(3, 2), 0) is None
    assert _ratio(Fraction(3, 2), 1) == "3/2"


def test_bench_csv_zero_optimum(tmp_path, capsys):
    write_zero_optimum(tmp_path)
    csv_path = tmp_path / "report.csv"
    code, _, _ = run(capsys, "bench", "--suite", str(tmp_path / "*.json"),
                     "--epsilons", "1/2", "--csv", str(csv_path))
    assert code == 0
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["algorithm"] for row in rows] == ["exact", "fptas"]
    assert all(row["ratio"] == "1" for row in rows)


def test_bench_over_oracle_demand_cap(tmp_path, capsys):
    inst = Instance([Facility(1, 300)], [Client(201)], [[1]])
    mio.save_instance(inst, tmp_path / "big.json")
    csv_path = tmp_path / "report.csv"
    code, _, _ = run(capsys, "bench", "--suite", str(tmp_path / "*.json"),
                     "--epsilons", "1/2", "--csv", str(csv_path))
    assert code == 0
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["algorithm"] for row in rows] == ["exact", "fptas"]
    assert rows[0]["cost"] == "202"
    assert all(row["oracle_cost"] == row["ratio"] == "" for row in rows)


def test_bench_over_exact_demand_cap(tmp_path, capsys):
    # --exact-max-demand above the exact DP's own cap must not let its
    # DemandCapExceeded through: the exact row is skipped instead
    inst = Instance([Facility(1, 2_000_000)], [Client(1_000_001)], [[1]])
    mio.save_instance(inst, tmp_path / "huge.json")
    csv_path = tmp_path / "report.csv"
    code, out, err = run(capsys, "bench", "--suite",
                         str(tmp_path / "*.json"), "--epsilons", "1",
                         "--exact-max-demand", "2000000",
                         "--csv", str(csv_path))
    assert code == 0 and err == ""
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["algorithm"] for row in rows] == ["exact", "fptas"]
    assert rows[0]["cost"] == "skipped"
    assert Fraction(rows[1]["cost"]) <= 2 * 1_000_002


def test_json_booleans_rejected(tmp_path, capsys):
    cost_path = write_raw(tmp_path, [[1, True], [1, 1]])
    for argv in (["solve"], ["check"]):
        code, out, err = run(capsys, *argv, "--input", cost_path)
        assert code == 1 and out == ""
        assert one_line_error(err) and "cost" in err
    data = json.loads((tmp_path / "raw.json").read_text())
    data["costs"] = [[1, 2], [1, 1]]
    data["facilities"][0] = {"open_cost": 1, "capacity": True}
    int_path = tmp_path / "bool_capacity.json"
    int_path.write_text(json.dumps(data))
    for argv in (["solve"], ["check"]):
        code, out, err = run(capsys, *argv, "--input", str(int_path))
        assert code == 1 and out == ""
        assert one_line_error(err) and "capacity" in err


def test_check_pass_and_fail(tmp_path, capsys):
    path = write_ref1(tmp_path)
    code, out, _ = run(capsys, "check", "--input", path)
    assert code == 0 and "pass" in out

    bad = Instance([Facility(1, 5), Facility(1, 5)],
                   [Client(1), Client(1)], [[2, 1], [1, 2]])
    bad_path = tmp_path / "bad.json"
    mio.save_instance(bad, bad_path)
    code, out, _ = run(capsys, "check", "--input", str(bad_path))
    assert code == 3
    assert out == "violation at facilities (1,2) clients (1,2): 4 > 2\n"


def test_check_windowed(tmp_path, capsys):
    from mongecfl.model import INF
    inst = Instance([Facility(1, 5), Facility(1, 5)],
                    [Client(2, 1, 2), Client(3, 2, 2)],
                    [[1, INF], [1, 1]])
    path = tmp_path / "win.json"
    mio.save_instance(inst, path)
    code, out, _ = run(capsys, "check", "--input", str(path),
                       "--mode", "windowed")
    assert code == 0 and "pass" in out


def test_check_mode_adjacent_is_a_usage_error(tmp_path, capsys):
    """``check_monge_full`` takes the adjacent-pair pass itself on
    finite costs, so there is no mode for it."""
    code, out, err = run(capsys, "check", "--input", write_ref1(tmp_path),
                         "--mode", "adjacent")
    assert code == 1 and out == "" and one_line_error(err)
    assert "invalid choice: 'adjacent'" in err


def test_convert_lot_sizing(tmp_path, capsys):
    ls_path = tmp_path / "ls.json"
    ls_path.write_text(json.dumps({
        "horizon": 2,
        "orders": [{"cost": 1, "capacity": 5}, {"cost": 1, "capacity": 5}],
        "demands": [{"period": 1, "amount": 2}, {"period": 2, "amount": 3}],
        "holding": [2]}))
    out_path = tmp_path / "inst.json"
    code, out, _ = run(capsys, "convert", "--from", "lot-sizing",
                       "--input", str(ls_path), "--output", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["costs"] == [[0, 2], ["inf", 0]]


def test_convert_lot_sizing_rejects_non_integer_fields(tmp_path, capsys):
    good = {
        "horizon": 2,
        "orders": [{"cost": 1, "capacity": 5}, {"cost": 1, "capacity": 5}],
        "demands": [{"period": 1, "item": 0, "amount": 2},
                    {"period": 2, "item": 0, "amount": 3}],
        "holding": [2]}
    bad_values = [
        (("orders", 0, "cost"), True), (("orders", 0, "capacity"), "5"),
        (("orders", 1, "cost"), 2.9), (("horizon",), True),
        (("demands", 0, "period"), 1.0), (("demands", 1, "item"), False),
        (("demands", 1, "amount"), "3"), (("holding", 0), True)]
    ls_path = tmp_path / "ls.json"
    out_path = tmp_path / "inst.json"
    for keys, value in bad_values:
        data = json.loads(json.dumps(good))
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        field = keys[-1] if isinstance(keys[-1], str) else keys[0]
        ls_path.write_text(json.dumps(data))
        for source in ("lot-sizing", "multi-item"):
            code, out, err = run(capsys, "convert", "--from", source,
                                 "--input", str(ls_path),
                                 "--output", str(out_path))
            assert code == 1 and out == "", (keys, value, source)
            assert one_line_error(err), (keys, value, source)
            assert field in err
        assert not out_path.exists()


def test_convert_multi_item_file_with_items_needs_multi_mode(tmp_path, capsys):
    ls_path = tmp_path / "ls.json"
    ls_path.write_text(json.dumps({
        "horizon": 2,
        "orders": [{"cost": 1, "capacity": 5}, {"cost": 1, "capacity": 5}],
        "demands": [{"period": 2, "item": 0, "amount": 1},
                    {"period": 2, "item": 1, "amount": 4}],
        "holding": [3]}))
    out_path = tmp_path / "inst.json"
    code, _, err = run(capsys, "convert", "--from", "lot-sizing",
                       "--input", str(ls_path), "--output", str(out_path))
    assert code == 1 and "single item" in err
    code, _, _ = run(capsys, "convert", "--from", "multi-item",
                     "--input", str(ls_path), "--output", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["clients"] == [
        {"demand": 1}, {"demand": 4}]


def test_generate_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        code, _, _ = run(capsys, "generate", "--kind", "monge",
                         "--m", "5", "--n", "5", "--seed", "42",
                         "--output", str(target))
        assert code == 0
    assert a.read_text() == b.read_text()
    from mongecfl.model import check_monge_full
    inst = mio.load_instance(a)
    assert check_monge_full(inst.costs) is None


def test_generate_rejects_bad_size(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "--m", "0", "--n", "3",
                       "--output", str(tmp_path / "x.json"))
    assert code == 1 and "positive" in err


@pytest.mark.parametrize("kind", ["monge", "lot-sizing", "windowed"])
@pytest.mark.parametrize("flag, value", [("--max-demand", "0"),
                                         ("--max-cost", "-1")])
def test_generate_rejects_bad_bounds(tmp_path, capsys, monkeypatch, kind,
                                     flag, value):
    """Rejected before any draw: a lot-sizing draw with no positive
    demand to pick would never end, the others raise a ValueError."""
    def no_draw(*args, **kwargs):
        raise AssertionError("the generator ran")
    for name in ("random_monge_instance", "random_lot_sizing",
                 "random_windowed_instance"):
        monkeypatch.setattr(cli, name, no_draw)
    target = tmp_path / "x.json"
    code, out, err = run(capsys, "generate", "--kind", kind, "--m", "3",
                         "--n", "3", flag, value, "--output", str(target))
    assert code == 1 and out == ""
    assert one_line_error(err) and flag in err
    assert not target.exists()


def test_generate_windowed_and_lot_sizing(tmp_path, capsys):
    win = tmp_path / "win.json"
    code, _, _ = run(capsys, "generate", "--kind", "windowed",
                     "--m", "3", "--n", "3", "--seed", "7",
                     "--output", str(win))
    assert code == 0
    ls = tmp_path / "ls.json"
    code, _, _ = run(capsys, "generate", "--kind", "lot-sizing",
                     "--m", "4", "--n", "4", "--seed", "7",
                     "--output", str(ls))
    assert code == 0
    assert mio.load_lot_sizing(ls).horizon == 4


def test_bench_csv(tmp_path, capsys):
    write_ref1(tmp_path)
    (tmp_path / "broken.json").write_text("{nope")
    csv_path = tmp_path / "report.csv"
    code, _, _ = run(capsys, "bench", "--suite", str(tmp_path / "*.json"),
                     "--epsilons", "1,1/2", "--csv", str(csv_path))
    assert code == 0
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert {"instance", "m", "n", "total_demand", "algorithm", "epsilon",
            "cost", "oracle_cost", "ratio", "wall_ms"} <= set(rows[0])
    by_algo = {}
    for row in rows:
        by_algo.setdefault(row["algorithm"], []).append(row)
    assert len(by_algo["error"]) == 1
    assert len(by_algo["fptas"]) == 2
    for row in by_algo["fptas"]:
        eps = Fraction(row["epsilon"])
        assert Fraction(row["ratio"]) <= 1 + eps
    assert by_algo["exact"][0]["cost"] == "11"


BAD_EPSILONS = ["1/0", "abc", "0", "-1", "inf"]


@pytest.mark.parametrize("epsilon", BAD_EPSILONS)
def test_solve_rejects_bad_epsilon(tmp_path, capsys, epsilon):
    path = write_ref1(tmp_path)
    for algorithm in ("fptas", "two-class"):
        code, out, err = run(capsys, "solve", "--input", path,
                             "--algorithm", algorithm, "--epsilon", epsilon)
        assert code == 1 and out == ""
        assert one_line_error(err) and "epsilon" in err


@pytest.mark.parametrize("epsilons", BAD_EPSILONS + ["1,1/0", "1/2,abc"])
def test_bench_rejects_bad_epsilon(tmp_path, capsys, epsilons):
    """Every epsilon is parsed before any instance is solved."""
    write_ref1(tmp_path)
    csv_path = tmp_path / "report.csv"
    code, out, err = run(capsys, "bench", "--suite", str(tmp_path / "*.json"),
                         "--epsilons", epsilons, "--csv", str(csv_path))
    assert code == 1 and out == ""
    assert one_line_error(err) and "epsilon" in err
    assert not csv_path.exists()


def test_bench_empty_suite(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    code, _, _ = run(capsys, "bench", "--suite", str(tmp_path / "none*.json"),
                     "--csv", str(csv_path))
    assert code == 0
    with open(csv_path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        assert header[0] == "instance"
        assert list(reader) == []


def test_malformed_instance_json_rejected(tmp_path, capsys):
    good = json.loads(Path(write_ref1(tmp_path)).read_text())
    bad_values = [(field, value, field) for field, value in (
        ("facilities", 5), ("facilities", [5]), ("clients", "2"),
        ("clients", [[2]]), ("costs", 5), ("costs", [5, 5]))]
    # out-of-range facility fields, named in the message by their key
    for key, value in (("open_cost", -1), ("capacity", 0)):
        facilities = [dict(f) for f in good["facilities"]]
        facilities[0][key] = value
        bad_values.append(("facilities", facilities, key))
    path = tmp_path / "bad.json"
    out_path = tmp_path / "converted.json"
    commands = (["solve"], ["check"],
                ["convert", "--from", "single-demand", "--output",
                 str(out_path)])
    for field, value, named in bad_values:
        path.write_text(json.dumps(dict(good, **{field: value})))
        for argv in commands:
            code, out, err = run(capsys, *argv, "--input", str(path))
            assert code == 1 and out == "", (field, value, argv)
            assert one_line_error(err) and named in err, (field, value, argv)
    path.write_text("[1]")
    for argv in commands:
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 1 and out == "" and one_line_error(err), argv
    assert not out_path.exists()


def test_malformed_lot_sizing_json_rejected(tmp_path, capsys):
    good = {"horizon": 2,
            "orders": [{"cost": 1, "capacity": 5}, {"cost": 1, "capacity": 5}],
            "demands": [{"period": 2, "item": 0, "amount": 3}],
            "holding": [2]}
    bad_values = [("holding", 5), ("orders", 5), ("orders", [5, 5]),
                  ("demands", {"period": 2}), ("demands", [3])]
    ls_path = tmp_path / "ls.json"
    out_path = tmp_path / "inst.json"
    for field, value in bad_values:
        ls_path.write_text(json.dumps(dict(good, **{field: value})))
        for source in ("lot-sizing", "multi-item"):
            code, out, err = run(capsys, "convert", "--from", source,
                                 "--input", str(ls_path),
                                 "--output", str(out_path))
            assert code == 1 and out == "", (field, value, source)
            assert one_line_error(err) and field in err, (field, value, source)
    ls_path.write_text("[]")
    code, out, err = run(capsys, "convert", "--from", "lot-sizing",
                         "--input", str(ls_path), "--output", str(out_path))
    assert code == 1 and out == "" and one_line_error(err)
    assert not out_path.exists()


def test_malformed_partition_json_rejected(tmp_path, capsys):
    path = write_ref1(tmp_path)
    part = tmp_path / "part.json"
    bad = [({"s1": 5, "s2": [1, 2]}, "s1"), ({"s1": [], "s2": 5}, "s2"),
           ({"s1": [1, "2"], "s2": []}, "s1"),
           ({"s1": [1, True], "s2": []}, "s1"), ([1, 2], "partition")]
    for data, field in bad:
        part.write_text(json.dumps(data))
        code, out, err = run(capsys, "solve", "--input", path,
                             "--algorithm", "two-class", "--epsilon", "1/2",
                             "--partition", str(part))
        assert code == 1 and out == "", data
        assert one_line_error(err) and field in err, data
    code, out, err = run(capsys, "solve", "--input", path,
                         "--algorithm", "two-class", "--epsilon", "1/2",
                         "--partition", str(tmp_path / "missing.json"))
    assert code == 1 and out == "" and one_line_error(err)


def write_lot_sizing(tmp_path):
    path = tmp_path / "ls.json"
    path.write_text(json.dumps({
        "horizon": 2,
        "orders": [{"cost": 1, "capacity": 5}, {"cost": 1, "capacity": 5}],
        "demands": [{"period": 1, "amount": 2}, {"period": 2, "amount": 3}],
        "holding": [2]}))
    return str(path)


@pytest.mark.parametrize("command", [
    ["solve", "--input", "{ref1}", "--output"],
    ["generate", "--m", "2", "--n", "2", "--output"],
    ["generate", "--kind", "lot-sizing", "--m", "2", "--n", "2", "--output"],
    ["convert", "--from", "lot-sizing", "--input", "{ls}", "--output"],
    ["bench", "--suite", "{ref1}", "--epsilons", "1", "--csv"],
], ids=["solve", "generate", "generate-lot-sizing", "convert", "bench"])
def test_output_into_missing_directory(tmp_path, capsys, command):
    inputs = {"ref1": write_ref1(tmp_path), "ls": write_lot_sizing(tmp_path)}
    target = tmp_path / "missing" / "out.json"
    argv = [arg.format(**inputs) for arg in command] + [str(target)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert one_line_error(err) and str(target) in err
    assert not target.exists()


# Fuzzing: malformed JSON of every input kind, fed through ``main``.

_KEYS = ("facilities", "clients", "costs", "open_cost", "capacity", "demand",
         "release", "deadline", "horizon", "orders", "demands", "holding",
         "period", "item", "amount", "cost", "s1", "s2")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 12) | st.text(max_size=3)
    | st.sampled_from([0.5, 2**63, 10**30, "inf", "1"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(_KEYS)
                                     | st.text(max_size=3), inner,
                                     max_size=3)),
    max_leaves=8)
_VALID = {
    "instance": {"facilities": [{"open_cost": 2, "capacity": 4},
                                {"open_cost": 1, "capacity": 3}],
                 "clients": [{"demand": 2, "release": 1, "deadline": 1},
                             {"demand": 3, "release": 1, "deadline": 2}],
                 "costs": [[1, 3], ["inf", 1]]},
    "lot-sizing": {"horizon": 2,
                   "orders": [{"cost": 1, "capacity": 5},
                              {"cost": 2, "capacity": 5}],
                   "demands": [{"period": 1, "item": 0, "amount": 2},
                               {"period": 2, "item": 1, "amount": 3}],
                   "holding": [2]},
    "partition": {"s1": [1], "s2": [2]},
}
_COMMANDS = {
    "instance": (["solve"],
                 ["solve", "--algorithm", "fptas", "--epsilon", "1/2"],
                 ["solve", "--algorithm", "two-class", "--epsilon", "1/2"],
                 ["check"], ["check", "--mode", "windowed"],
                 ["convert", "--from", "single-demand", "--output", "{out}"]),
    "lot-sizing": (["convert", "--from", "lot-sizing", "--output", "{out}"],
                   ["convert", "--from", "multi-item", "--output", "{out}"]),
    "partition": (["solve", "--algorithm", "two-class", "--epsilon", "1/2",
                   "--partition", "{input}", "--input", "{instance}"],),
}


def _slots(node):
    """(container, key) of every value inside a JSON document."""
    keys = (node.keys() if isinstance(node, dict)
            else range(len(node)) if isinstance(node, list) else ())
    for key in keys:
        yield node, key
        yield from _slots(node[key])


@st.composite
def _malformed(draw, kind):
    """A valid document of ``kind`` with one to three values replaced,
    deleted or appended, or any JSON value at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    doc = copy.deepcopy(_VALID[kind])
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        action = draw(st.sampled_from(("replace", "delete", "append")))
        if action == "replace":
            node[key] = draw(_JSON)
        elif action == "delete":
            del node[key]
        elif isinstance(node, list):
            node.append(draw(_JSON))
        else:
            node[draw(st.sampled_from(_KEYS))] = draw(_JSON)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_json_never_tracebacks(tmp_path, capsys, data):
    kind = data.draw(st.sampled_from(sorted(_VALID)))
    command = data.draw(st.sampled_from(_COMMANDS[kind]))
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data.draw(_malformed(kind))))
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps(_VALID["instance"]))
    out = tmp_path / "out.json"
    argv = [arg.format(input=path, instance=instance, out=out)
            for arg in command]
    if "--input" not in argv:
        argv += ["--input", str(path)]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2, 3), (argv, path.read_text())
    assert "Traceback" not in err
    assert err == "" or one_line_error(err) or err.startswith(
        "internal error"), err


# Failure output: the exact lines and files each failure leaves.

NON_MONGE_WITNESS = "violation at facilities (1,2) clients (1,2): 4 > 2\n"


def non_monge_instance():
    """Monge fails at (1,2),(1,2): 2 + 2 > 1 + 1.  Both solvers answer 4
    on it, while the optimum serves each client at cost 1."""
    return Instance([Facility(0, 1), Facility(0, 1)],
                    [Client(1), Client(1)], [[2, 1], [1, 2]])


def test_convert_non_monge_reduction_is_an_internal_error(tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(cli, "lot_sizing_to_cfl",
                        lambda ls: non_monge_instance())
    out_path = tmp_path / "inst.json"
    code, out, err = run(capsys, "convert", "--from", "lot-sizing",
                         "--input", write_lot_sizing(tmp_path),
                         "--output", str(out_path))
    assert code == 3 and out == NON_MONGE_WITNESS
    assert err == "internal error: reduction produced a non-Monge matrix\n"
    assert not out_path.exists()


def test_check_windowed_violation(tmp_path, capsys):
    inst = Instance([Facility(1, 5), Facility(1, 5)],
                    [Client(2, 1, 2), Client(3, 2, 2)], [[1, 1], [1, 1]])
    path = tmp_path / "win.json"
    mio.save_instance(inst, path)
    code, out, err = run(capsys, "check", "--input", str(path),
                         "--mode", "windowed")
    assert code == 3 and err == ""
    assert out == ("violation: WindowViolation(i=1, j=2, "
                   "reason='finite cost outside the window')\n")


def test_bench_rows_pinned(tmp_path, capsys):
    """Every column but the wall_ms values, over a Monge, an infeasible,
    a windowed and an unreadable file; infeasible rows keep a wall_ms."""
    suite = {"a_ref1.json": Instance([Facility(3, 5), Facility(10, 5)],
                                     [Client(2), Client(3)], [[1, 2], [3, 1]]),
             "b_infeasible.json": Instance([Facility(1, 2)], [Client(5)],
                                           [[1]]),
             "c_windowed.json": Instance([Facility(1, 5), Facility(1, 5)],
                                         [Client(2, 1, 2), Client(3, 2, 2)],
                                         [[1, INF], [1, 1]])}
    for name, inst in suite.items():
        mio.save_instance(inst, tmp_path / name)
    (tmp_path / "d_broken.json").write_text("{nope")
    csv_path = tmp_path / "report.csv"
    code, out, err = run(capsys, "bench", "--suite", str(tmp_path / "*.json"),
                         "--epsilons", "1,1/2", "--csv", str(csv_path))
    assert code == 0 and err == "" and out.startswith("10 rows, ")
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert all((row["wall_ms"] != "") == (row["algorithm"] != "error")
               for row in rows)
    pinned = [[Path(row.pop("instance")).name, *row.values()][:-1]
              for row in rows]
    assert pinned == [
        ["a_ref1.json", "2", "2", "5", "exact", "", "11", "11", "1"],
        ["a_ref1.json", "2", "2", "5", "fptas", "1", "11", "11", "1"],
        ["a_ref1.json", "2", "2", "5", "fptas", "1/2", "11", "11", "1"],
        ["b_infeasible.json", "1", "1", "5", "exact", "", "inf", "", ""],
        ["b_infeasible.json", "1", "1", "5", "fptas", "1", "inf", "", ""],
        ["b_infeasible.json", "1", "1", "5", "fptas", "1/2", "inf", "", ""],
        ["c_windowed.json", "2", "2", "5", "exact", "", "6", "6", "1"],
        ["c_windowed.json", "2", "2", "5", "fptas", "1", "6", "6", "1"],
        ["c_windowed.json", "2", "2", "5", "fptas", "1/2", "6", "6", "1"],
        ["d_broken.json", "", "", "", "error", "", "", "", ""]]


def write_non_monge(tmp_path):
    path = tmp_path / "non_monge.json"
    mio.save_instance(non_monge_instance(), path)
    return str(path)


@pytest.mark.parametrize("extra", [
    [], ["--algorithm", "fptas", "--epsilon", "1/10"],
    ["--algorithm", "two-class", "--epsilon", "1/10"],
], ids=["exact", "fptas", "two-class-without-partition"])
def test_solve_refuses_non_monge_costs(tmp_path, capsys, extra):
    out_path = tmp_path / "sol.json"
    code, out, err = run(capsys, "solve", "--input", write_non_monge(tmp_path),
                         "--output", str(out_path), *extra)
    assert code == 3 and out == NON_MONGE_WITNESS and err == ""
    assert not out_path.exists()


@pytest.mark.parametrize("partition, instance, witness", [
    ({"s1": [1, 2], "s2": []}, non_monge_instance(), NON_MONGE_WITNESS),
    ({"s1": [], "s2": [1, 2]}, non_monge_instance(), NON_MONGE_WITNESS),
    # class s1 is columns 1 and 3 of a matrix whose first violation is
    # at clients (1,2); the witness names instance clients, not class
    # positions
    ({"s1": [1, 3], "s2": [2]},
     Instance([Facility(0, 2), Facility(0, 2)], [Client(1)] * 3,
              [[2, 0, 1], [1, 0, 2]]),
     "violation at facilities (1,2) clients (1,3): 4 > 2\n"),
], ids=["s1", "s2", "non-adjacent-class"])
def test_solve_partition_refuses_a_non_monge_class(tmp_path, capsys,
                                                   partition, instance,
                                                   witness):
    path = tmp_path / "inst.json"
    mio.save_instance(instance, path)
    part = tmp_path / "part.json"
    part.write_text(json.dumps(partition))
    out_path = tmp_path / "sol.json"
    code, out, err = run(capsys, "solve", "--input", str(path),
                         "--algorithm", "two-class", "--epsilon", "1/10",
                         "--partition", str(part), "--output", str(out_path),
                         "--verify-with-oracle")
    assert code == 3 and out == witness and err == ""
    assert not out_path.exists()


def test_generated_splits_pass_the_class_check():
    """No split the generator draws is refused: the criterion-9 split
    draws (in that test's order) and 500 seeded draws.  Their whole
    matrices are often not Monge, so the check must be per class."""
    rng = random.Random(909)
    for _ in range(100):
        random_monge_instance(rng, rng.randint(1, 4), rng.randint(1, 4),
                              feasible=True)
    draws = [random_two_class_instance(rng, rng.randint(2, 4),
                                       rng.randint(2, 4), feasible=True)
             for _ in range(50)]
    for seed in range(500):
        rng = random.Random(seed)
        draws.append(random_two_class_instance(rng, rng.randint(2, 5),
                                               rng.randint(2, 5),
                                               feasible=seed % 2 == 0))
    for inst, s1, s2 in draws:
        for clients in (s1, s2):
            cli._require_monge(inst.costs, clients)
    assert any(check_monge_full(inst.costs) for inst, _, _ in draws)


def test_bench_non_monge_file_is_an_error_row(tmp_path, capsys, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solver ran")
    for name in ("solve_exact", "run_fptas", "brute_force_optimum"):
        monkeypatch.setattr(cli, name, no_solve)
    path = write_non_monge(tmp_path)
    csv_path = tmp_path / "report.csv"
    code, out, err = run(capsys, "bench", "--suite", path, "--csv",
                         str(csv_path))
    assert code == 0 and out == "1 rows\n" and err == ""
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [{k: v for k, v in row.items() if v} for row in rows] == [
        {"instance": path, "algorithm": "error"}]


# Usage errors take the same path as every other input error.

@pytest.mark.parametrize("argv", [
    [], ["solve"], ["generate", "--m", "x", "--n", "1", "--output", "{out}"],
    ["check", "--mode", "bogus", "--input", "{out}"],
], ids=["no-command", "solve-without-input", "generate-bad-int",
        "check-bad-choice"])
def test_usage_errors_exit_1(tmp_path, capsys, argv):
    argv = [arg.format(out=tmp_path / "x.json") for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and one_line_error(err)
    assert err.startswith(" ".join(["error: mongecfl", *argv[:1]]) + ": ")
    assert not (tmp_path / "x.json").exists()


def test_help_exits_0(capsys):
    for argv in (["--help"], ["solve", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: mongecfl" in capsys.readouterr().out


_FLAGS = {
    "solve": ["--input", "--algorithm", "--epsilon", "--partition",
              "--output", "--verify-with-oracle"],
    "check": ["--input", "--mode"],
    "convert": ["--from", "--input", "--output"],
    "generate": ["--kind", "--m", "--n", "--max-cost", "--max-demand",
                 "--seed", "--output"],
    "bench": ["--suite", "--epsilons", "--oracle-max-m", "--exact-max-demand",
              "--csv"],
}
_FILES = ("ref1.json", "ls.json", "part.json", "*.json", "missing/x.json")


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_argv_gets_a_documented_exit_code(tmp_path, capsys, data):
    """A subcommand and up to four tokens from its flags, numbers and
    paths inside ``tmp_path``: never a SystemExit, always 0-3 and at
    most one line on stderr."""
    command = data.draw(st.sampled_from(sorted(_FLAGS)))
    vocabulary = (_FLAGS[command] + ["x", "-1", "0", "1", "1/0"]
                  + [str(tmp_path / name) for name in _FILES])
    argv = [command, *data.draw(st.lists(st.sampled_from(vocabulary),
                                         max_size=4))]
    write_ref1(tmp_path)
    write_lot_sizing(tmp_path)
    (tmp_path / "part.json").write_text(json.dumps({"s1": [1], "s2": [2]}))
    try:
        code, _, err = run(capsys, *argv)
    except SystemExit as exc:
        pytest.fail(f"SystemExit({exc.code}) on {argv}")
    assert code in (0, 1, 2, 3), argv
    assert err == "" or one_line_error(err) or err == (
        "internal error: reduction produced a non-Monge matrix\n"), (argv, err)
