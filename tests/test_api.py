"""The public API: any change to ``mongecfl.__all__`` shows up here."""

import mongecfl

PUBLIC = [
    "BudgetGrid", "Client", "ClientPartition", "DemandCapExceeded",
    "ExactSolver", "Facility", "Flow", "FptasResult", "INF", "Infeasible",
    "Instance", "LotSizingInstance", "MongeWitness", "OracleResult",
    "Solution", "ValueTable", "brute_force_optimum", "build_value_table",
    "check_monge_full", "check_windowed_monge",
    "find_budget_bound", "is_inf", "lot_sizing_to_cfl",
    "min_cost_assignment", "multi_item_to_cfl", "run_fptas",
    "run_two_class_fptas", "solve_exact", "solve_fptas",
    "solve_two_class_fptas", "validate_instance",
]


def test_public_names():
    assert sorted(mongecfl.__all__) == PUBLIC


def test_public_names_resolve():
    for name in PUBLIC:
        assert hasattr(mongecfl, name), name
