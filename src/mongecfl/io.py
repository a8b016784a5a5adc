"""JSON file formats: instances, lot-sizing inputs, solutions.

Indices are implicit (1-based by list position).  Infinite costs are
the string "inf"; rationals serialize as strings "p/q" (plain "p" for
integers) so values cross the file boundary exactly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Union

from .exact import Solution
from .model import INF, Client, Facility, Instance, is_inf
from .reductions import LotSizingInstance


def _cost_to_json(c) -> Union[int, str]:
    return "inf" if is_inf(c) else int(c)


def _is_json_int(v) -> bool:
    """JSON integers only: ``true``/``false`` load as bool, an int subclass."""
    return isinstance(v, int) and not isinstance(v, bool)


def _cost_from_json(v):
    if v == "inf":
        return INF
    if _is_json_int(v):
        return v
    raise ValueError(f"cost entries must be integers or \"inf\", got {v!r}")


def _int_from_json(v, what: str) -> int:
    if _is_json_int(v):
        return v
    raise ValueError(f"{what} must be an integer, got {v!r}")


def _optional_int_from_json(v, what: str):
    return None if v is None else _int_from_json(v, what)


def instance_to_dict(inst: Instance) -> dict:
    facilities = [{"open_cost": f.open_cost, "capacity": f.capacity}
                  for f in inst.facilities]
    clients = []
    for c in inst.clients:
        entry: dict = {"demand": c.demand}
        if c.release is not None:
            entry["release"] = c.release
        if c.deadline is not None:
            entry["deadline"] = c.deadline
        clients.append(entry)
    costs = [[_cost_to_json(c) for c in row] for row in inst.costs]
    return {"facilities": facilities, "clients": clients, "costs": costs}


def instance_from_dict(data: dict) -> Instance:
    facilities = [Facility(_int_from_json(f["open_cost"], "open_cost"),
                           _int_from_json(f["capacity"], "capacity"))
                  for f in data["facilities"]]
    clients = [Client(_int_from_json(c["demand"], "demand"),
                      _optional_int_from_json(c.get("release"), "release"),
                      _optional_int_from_json(c.get("deadline"), "deadline"))
               for c in data["clients"]]
    costs = [[_cost_from_json(v) for v in row] for row in data["costs"]]
    return Instance(facilities, clients, costs)


def save_instance(inst: Instance, path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(inst), indent=1) + "\n",
                          encoding="utf-8")


def load_instance(path) -> Instance:
    return instance_from_dict(json.loads(Path(path).read_text("utf-8")))


def lot_sizing_from_dict(data: dict) -> LotSizingInstance:
    orders = [(_int_from_json(o["cost"], "cost"),
               _int_from_json(o["capacity"], "capacity"))
              for o in data["orders"]]
    demands = [(_int_from_json(d["period"], "period"),
                _int_from_json(d.get("item", 0), "item"),
                _int_from_json(d["amount"], "amount"))
               for d in data["demands"]]
    holding = [_int_from_json(h, "holding") for h in data["holding"]]
    return LotSizingInstance(_int_from_json(data["horizon"], "horizon"),
                             orders, demands, holding)


def lot_sizing_to_dict(ls: LotSizingInstance) -> dict:
    return {
        "horizon": ls.horizon,
        "orders": [{"cost": c, "capacity": u} for c, u in ls.orders],
        "demands": [{"period": t, "item": item, "amount": a}
                    for t, item, a in ls.demands],
        "holding": list(ls.holding),
    }


def load_lot_sizing(path) -> LotSizingInstance:
    return lot_sizing_from_dict(json.loads(Path(path).read_text("utf-8")))


def save_lot_sizing(ls: LotSizingInstance, path) -> None:
    Path(path).write_text(json.dumps(lot_sizing_to_dict(ls), indent=1) + "\n",
                          encoding="utf-8")


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
    Path(path).write_text(json.dumps(solution_to_dict(solution), indent=1)
                          + "\n", encoding="utf-8")
