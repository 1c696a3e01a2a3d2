"""Exception hierarchy for the crn package.

Everything raised on purpose derives from :class:`CrnError`, so callers can
catch one type at the boundary.  Input-shaped problems additionally derive
from ``ValueError``, numerical ones from ``ArithmeticError`` or
``RuntimeError``.
"""


class CrnError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# network construction
# ---------------------------------------------------------------------------

class NetworkValidationError(CrnError, ValueError):
    """A network violates a structural invariant."""


class SelfLoopError(NetworkValidationError):
    """A reaction has identical source and target complex."""


class DuplicateReactionError(NetworkValidationError):
    """The same directed reaction was given more than once."""


class UnusedSpeciesError(NetworkValidationError):
    """A species has zero coordinate in every complex."""


class OrphanComplexError(NetworkValidationError):
    """A complex appears in no reaction."""


class UnknownReactionError(CrnError, ValueError):
    """A reaction does not belong to the given network."""


class EmptyNetworkError(CrnError, ValueError):
    """The operation is undefined on the empty network."""


# ---------------------------------------------------------------------------
# DSL parsing
# ---------------------------------------------------------------------------

class ParseError(CrnError, ValueError):
    """Malformed DSL text.  Carries a 1-based (line, column) span."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})" if line else message)
        self.line = line
        self.column = column


class RateArityError(ParseError):
    """Wrong number of rate constants for the arrow used."""


class NonpositiveRateError(ParseError):
    """A rate constant is zero or negative."""


class ZeroCoefficientError(ParseError):
    """An explicit stoichiometric coefficient of zero, e.g. ``0A``."""


class UnknownSpeciesError(ParseError):
    """A state assignment mentions a species the table does not contain."""


class NonIntegerCountError(ParseError):
    """A discrete state was requested but a value is not an integer."""


# ---------------------------------------------------------------------------
# deterministic solvers
# ---------------------------------------------------------------------------

class NotReversibleError(CrnError, ValueError):
    """The network is not reversible, so no reaction balanced state exists."""


class NotWeaklyReversibleError(CrnError, ValueError):
    """The network is not weakly reversible, so no complex balanced state exists."""


class NumericalRankFailureError(CrnError, RuntimeError):
    """A kernel computation did not have the expected dimension or sign."""


class NonFiniteStateError(CrnError, ArithmeticError):
    """ODE integration produced an overflow or NaN."""


class BalanceConsistencyError(CrnError, RuntimeError):
    """A balance report violated a theorem-level consistency constraint.

    This indicates a bug or a pathological tolerance, never a property of
    the analysed system.
    """


# ---------------------------------------------------------------------------
# stochastic analysis
# ---------------------------------------------------------------------------

class BoxTooSmallError(CrnError, ValueError):
    """Every transition out of the seed exits the truncation box."""


class NotClosedError(CrnError, ValueError):
    """Stationary solve requested on a component that leaks probability."""


class SolveFailureError(CrnError, ArithmeticError):
    """The global-balance linear system could not be solved reliably."""


class EmptySupportError(CrnError, ValueError):
    """A measure was requested on an empty state set."""


class NotNormalizedError(CrnError, ValueError):
    """An operation requires probability distributions, not raw measures."""


# ---------------------------------------------------------------------------
# simulation and CLI
# ---------------------------------------------------------------------------

class PathExplosionError(CrnError, RuntimeError):
    """A simulated path exceeded the configured jump-count guard."""
