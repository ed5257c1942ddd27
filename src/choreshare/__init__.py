"""Exact solvers for allocating indivisible chores to agents with asymmetric shares.

The package keeps every number an exact rational: instances, allocations,
maxmin benchmarks and achieved ratios are all `fractions.Fraction`, so the
guarantees of the algorithms can be checked with equality rather than
tolerances.
"""

from types import ModuleType as _ModuleType

from .algorithms import (
    TraceEvent,
    additive_greedy,
    binary_wmms,
    divide_and_choose,
    egal_greedy,
    multiplicative_greedy,
    naive,
    replay_trace,
    round_robin,
    wmms_prime,
)
from .errors import (
    BudgetExceeded,
    ChoreShareError,
    NoFeasibleAllocation,
    NoIntegralM,
    NormalizationImpossible,
    NotBinary,
    ParameterInconsistent,
    ParseError,
    RoundingInvariantViolation,
    Unbounded,
    UpperBoundInfeasible,
)
from .generators import (
    egal_greedy_failure_family,
    paper_table,
    random_instance,
    round_robin_family,
    round_robin_family_references,
)
from .lp import (
    AssignmentGraph,
    LinProResult,
    LPPoint,
    LPProgram,
    build_assignment_graph,
    build_program,
    check_feasible,
    linpro,
    min_feasible_c,
    round_extreme_point,
)
from .model import (
    AgentReport,
    Allocation,
    FairnessReport,
    Instance,
    bundle_value,
    fairness_report,
    normalize_instance,
    unfairness_degree,
    validate_allocation,
    validate_instance,
)
from .oracle import (
    DEFAULT_BUDGET,
    OracleResult,
    OwmmsResult,
    check_budget,
    exact_makespan_f,
    exact_owmms,
    exact_wmms,
    verify_alpha,
)
from .serialization import (
    format_ratio,
    load_instance,
    parse_instance,
    parse_ratio,
    save_instance,
    serialize_instance,
)

__version__ = "0.1.0"

# Every public name imported above, and no submodule.
__all__ = sorted(
    name for name, obj in globals().items()
    if not name.startswith("_") and not isinstance(obj, _ModuleType)
)
