"""JSON file formats: instances, lot-sizing inputs, solutions.

Indices are implicit (1-based by list position).  Infinite costs are
the string "inf"; rationals serialize as strings "p/q" (plain "p" for
integers) so values cross the file boundary exactly.

Only JSON shapes (objects, lists) are checked here; the model types
refuse non-integer numbers, naming the field.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .exact import Solution
from .extensions import ClientPartition
from .model import INF, Client, Facility, Instance, is_inf
from .reductions import LotSizingInstance


def _read_json(path):
    return json.loads(Path(path).read_text("utf-8"))


def _write_json(data, path) -> None:
    Path(path).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def _shaped(v, shape: type, what: str):
    """``v`` if it is a JSON object (shape dict) or list (shape list)."""
    if isinstance(v, shape):
        return v
    name = "an object" if shape is dict else "a list"
    raise ValueError(f"{what} must be {name}, got {type(v).__name__}")


def _objects_from_json(data: dict, field: str) -> list:
    """data[field] as a list of objects."""
    return [_shaped(v, dict, f"each {field} entry")
            for v in _shaped(data[field], list, field)]


def instance_to_dict(inst: Instance) -> dict:
    facilities = [{"open_cost": f.open_cost, "capacity": f.capacity}
                  for f in inst.facilities]
    clients = [{field: getattr(c, field)
                for field in ("demand", "release", "deadline")
                if getattr(c, field) is not None}
               for c in inst.clients]
    costs = [["inf" if is_inf(c) else c for c in row] for row in inst.costs]
    return {"facilities": facilities, "clients": clients, "costs": costs}


def instance_from_dict(data: dict) -> Instance:
    data = _shaped(data, dict, "an instance")
    facilities = [Facility(f["open_cost"], f["capacity"])
                  for f in _objects_from_json(data, "facilities")]
    clients = [Client(c["demand"], c.get("release"), c.get("deadline"))
               for c in _objects_from_json(data, "clients")]
    costs = [[INF if v == "inf" else v
              for v in _shaped(row, list, "each costs row")]
             for row in _shaped(data["costs"], list, "costs")]
    return Instance(facilities, clients, costs)


def save_instance(inst: Instance, path) -> None:
    _write_json(instance_to_dict(inst), path)


def load_instance(path) -> Instance:
    return instance_from_dict(_read_json(path))


def lot_sizing_from_dict(data: dict) -> LotSizingInstance:
    data = _shaped(data, dict, "a lot-sizing instance")
    orders = [(o["cost"], o["capacity"])
              for o in _objects_from_json(data, "orders")]
    demands = [(d["period"], d.get("item", 0), d["amount"])
               for d in _objects_from_json(data, "demands")]
    return LotSizingInstance(data["horizon"], orders, demands,
                             _shaped(data["holding"], list, "holding"))


def lot_sizing_to_dict(ls: LotSizingInstance) -> dict:
    return {
        "horizon": ls.horizon,
        "orders": [{"cost": c, "capacity": u} for c, u in ls.orders],
        "demands": [{"period": t, "item": item, "amount": a}
                    for t, item, a in ls.demands],
        "holding": list(ls.holding),
    }


def load_lot_sizing(path) -> LotSizingInstance:
    return lot_sizing_from_dict(_read_json(path))


def save_lot_sizing(ls: LotSizingInstance, path) -> None:
    _write_json(lot_sizing_to_dict(ls), path)


def load_partition(path) -> ClientPartition:
    """A two-class client partition: an object with integer lists s1, s2."""
    data = _shaped(_read_json(path), dict, "a partition")
    return ClientPartition(_shaped(data["s1"], list, "s1"),
                           _shaped(data["s2"], list, "s2"))


def _rational_str(x) -> str:
    return str(Fraction(x))


def solution_to_dict(solution: Solution) -> dict:
    assignment = [
        {"facility": i, "client": j, "fraction": _rational_str(x)}
        for (i, j), x in sorted(solution.assignment.entries.items())
        if x > 0
    ]
    return {
        "open": sorted(solution.open),
        "assignment": assignment,
        "cost": "inf" if is_inf(solution.total_cost)
                else _rational_str(solution.total_cost),
    }


def save_solution(solution: Solution, path) -> None:
    _write_json(solution_to_dict(solution), path)
