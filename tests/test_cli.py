"""Command-line interface: exit codes, file outputs, reports."""

import csv
import json
from fractions import Fraction

from mongecfl import io as mio
from mongecfl.cli import _ratio, main
from mongecfl.model import Client, Facility, Instance


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
    for extra in ([], ["--algorithm", "fptas", "--epsilon", "1"]):
        code, out, _ = run(capsys, "solve", "--input", str(path), *extra)
        assert code == 2
        assert json.loads(out)["cost"] == "inf"


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


def write_raw(tmp_path, costs, open_cost=1):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({
        "facilities": [{"open_cost": open_cost, "capacity": 5}] * 2,
        "clients": [{"demand": 1, "release": 1, "deadline": 2}] * 2,
        "costs": costs}))
    return str(path)


def test_check_ragged_cost_rows(tmp_path, capsys):
    path = write_raw(tmp_path, [[1, 2], [1]])
    for mode in ("full", "adjacent", "windowed"):
        code, _, err = run(capsys, "check", "--input", path, "--mode", mode)
        assert code == 1
        assert one_line_error(err) and "dimension mismatch" in err


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
    for mode in ("full", "adjacent"):
        code, out, _ = run(capsys, "check", "--input", str(bad_path),
                           "--mode", mode)
        assert code == 3
        assert "violation" in out


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


def test_check_adjacent_rejects_inf(tmp_path, capsys):
    from mongecfl.model import INF
    inst = Instance([Facility(1, 5), Facility(1, 5)],
                    [Client(2), Client(3)], [[0, 2], [INF, 0]])
    path = tmp_path / "inf.json"
    mio.save_instance(inst, path)
    code, _, err = run(capsys, "check", "--input", str(path),
                       "--mode", "adjacent")
    assert code == 1 and "check_monge_full" in err


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
