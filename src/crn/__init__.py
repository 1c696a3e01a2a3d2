"""Graphical balance analysis for mass-action reaction networks.

The package parses a small reaction-network DSL, classifies deterministic
states and stochastic stationary measures against four balance conditions
(reaction, complex, reaction-vector, cycle), solves for balanced equilibria
and stationary distributions, simulates the count process exactly, and
cross-checks the implication map between the two modeling regimes on
concrete instances.
"""

from .errors import (
    BalanceConsistencyError,
    BoxTooSmallError,
    CrnError,
    CycleBudgetExceededError,
    DuplicateReactionError,
    EmptyNetworkError,
    EmptySupportError,
    ImplicationViolationError,
    NonFiniteStateError,
    NonIntegerCountError,
    NonpositiveRateError,
    NotClosedError,
    NotNormalizedError,
    NotReversibleError,
    NotWeaklyReversibleError,
    NumericalRankFailureError,
    OrphanComplexError,
    ParseError,
    PathExplosionError,
    RateArityError,
    SelfLoopError,
    SolveFailureError,
    UnknownReactionError,
    UnknownSpeciesError,
    UnusedSpeciesError,
    ZeroCoefficientError,
)
from .model import (
    Complex,
    MassActionSystem,
    Measure,
    Reaction,
    ReactionNetwork,
    SpeciesTable,
    Status,
    Verdict,
    Witness,
    build_network,
    conserved_matrix,
    det_state,
    discrete_state,
    empty_network,
    reaction_vector,
    stoichiometric_basis,
)
from .parser import SourceSpan, format_network, parse_network, parse_state
from .graph import (
    DirectedCycle,
    LinkagePartition,
    active_subnetwork,
    deficiency,
    is_reversible,
    is_weakly_reversible,
    linkage_classes,
    simple_cycles,
)
from .kinetics import det_rates, propensity
from .detbal import (
    ReactionVectorClasses,
    StateBalanceReport,
    classify_state,
    drift,
    integrate,
    is_equilibrium,
    reaction_vector_classes,
    same_compatibility_class,
    solve_complex_balanced,
    solve_rvb,
    solve_reaction_balanced,
    system_cycle_balanced,
)
from .stoch import (
    Box,
    ComponentResult,
    MeasureBalanceReport,
    classification_domain,
    classify_component_measure,
    classify_measure,
    communicating_class,
    component_is_active,
    is_stationary_measure,
    poisson_product,
    stationary_distribution,
    transitions,
)
from .ssa import SsaConfig, occupancy_measure, ssa_path, tv_distance
from .bridge import analyze_system
from . import corpus

__version__ = "0.1.0"
