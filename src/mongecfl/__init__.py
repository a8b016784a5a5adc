"""Capacitated facility location with Monge transportation costs.

Exact dynamic programming for polynomially bounded demands, a
budget-grid FPTAS for general demands, lot-sizing reductions, windowed
extensions, and an independent brute-force oracle for verification.
"""

from .exact import DemandCapExceeded, ExactSolver, Solution, solve_exact
from .extensions import (ClientPartition, check_windowed_monge,
                         run_two_class_fptas, solve_two_class_fptas)
from .fptas import (BudgetGrid, FptasResult, ValueTable, build_value_table,
                    find_budget_bound, run_fptas, solve_fptas)
from .kernel import Flow
from .model import (INF, Client, Facility, Infeasible, Instance, MongeWitness,
                    check_monge_full, is_inf, validate_instance)
from .oracle import OracleResult, brute_force_optimum, min_cost_assignment
from .reductions import LotSizingInstance, lot_sizing_to_cfl, multi_item_to_cfl

__all__ = [
    "INF", "BudgetGrid", "Client", "ClientPartition", "DemandCapExceeded",
    "ExactSolver", "Facility", "Flow", "FptasResult", "Infeasible",
    "Instance", "LotSizingInstance", "MongeWitness",
    "OracleResult", "Solution", "ValueTable", "brute_force_optimum",
    "build_value_table", "check_monge_full",
    "check_windowed_monge", "find_budget_bound", "is_inf",
    "lot_sizing_to_cfl", "min_cost_assignment", "multi_item_to_cfl",
    "run_fptas", "run_two_class_fptas", "solve_exact", "solve_fptas",
    "solve_two_class_fptas", "validate_instance",
]

__version__ = "0.1.0"
