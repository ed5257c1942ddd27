"""Exception types raised by the solvers, oracles and parsers."""


class ChoreShareError(Exception):
    """Base class for all package-specific errors."""


class ParseError(ChoreShareError):
    """An instance document could not be parsed; the message carries field context."""


class NormalizationImpossible(ChoreShareError):
    """An agent values every chore at zero, so ``divide_and_choose`` cannot scale her row to total -1."""


class BudgetExceeded(ChoreShareError):
    """An exhaustive enumeration would exceed the configured work budget."""


class NotBinary(ChoreShareError):
    """A valuation entry lies outside {0, -1} where binary values are required."""


class ParameterInconsistent(ChoreShareError):
    """Generator parameters violate the family's defining identity."""


class NoIntegralM(ChoreShareError):
    """The requested epsilon admits no integer chore count for the additive-greedy fixture."""


class NoFeasibleAllocation(ChoreShareError):
    """Defensive: no allocation satisfies the degenerate zero-reference agents."""


class RoundingInvariantViolation(ChoreShareError):
    """Internal: the fractional point handed to the rounder was not a basic feasible point."""


class UpperBoundInfeasible(ChoreShareError):
    """Internal: the feasibility program was infeasible at the proven-safe threshold."""


class Unbounded(ChoreShareError):
    """Internal: a linear objective was unbounded below on the feasible region."""
