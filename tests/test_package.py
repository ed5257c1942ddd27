import types

import choreshare

# The 61 public names of the package, one per definition imported in
# ``choreshare/__init__.py``.
PUBLIC_NAMES = {
    "AgentReport", "Allocation", "AssignmentGraph", "BudgetExceeded",
    "ChoreShareError", "DEFAULT_BUDGET", "FairnessReport", "Instance", "LPPoint",
    "LPProgram", "LinProResult", "NoFeasibleAllocation", "NoIntegralM",
    "NormalizationImpossible", "NotBinary", "OracleResult", "OwmmsResult",
    "ParameterInconsistent", "ParseError", "RoundingInvariantViolation",
    "SubsetBudgetExceeded", "TraceEvent", "Unbounded", "UpperBoundInfeasible",
    "additive_greedy", "binary_wmms", "build_assignment_graph", "build_program",
    "bundle_value", "check_budget", "check_feasible", "divide_and_choose",
    "egal_greedy", "egal_greedy_failure_family", "exact_makespan_f", "exact_owmms",
    "exact_wmms", "fairness_report", "format_ratio", "linpro", "load_instance",
    "min_feasible_c", "multiplicative_greedy", "naive", "normalize_instance",
    "paper_table", "parse_instance", "parse_ratio", "random_instance",
    "replay_trace", "round_extreme_point", "round_robin", "round_robin_family",
    "round_robin_family_references", "save_instance", "serialize_instance",
    "unfairness_degree", "validate_allocation", "validate_instance",
    "verify_alpha", "wmms_prime",
}


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from choreshare import *", namespace)
    namespace.pop("__builtins__")
    assert len(PUBLIC_NAMES) == 61
    assert set(namespace) == PUBLIC_NAMES
    assert not any(isinstance(obj, types.ModuleType) for obj in namespace.values())
    assert all(getattr(choreshare, name) is obj for name, obj in namespace.items())
