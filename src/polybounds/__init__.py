"""Classical and quantum bounds over marginal-compatibility polytopes.

A library and CLI for the places one convex question keeps reappearing:
which joint distributions are compatible with observed marginals?  The
answers here are Bell/CHSH facet tests and local-polytope membership,
coupling bounds on a pair of events, instrumental-variable partial
identification (average effects and probabilities of causation), moment-
matrix relaxations of the quantum correlation set, entropic inequality
checks, and a two-qubit simulator as ground truth, all validated against
brute-force oracles.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    EnumerationLimitError,
    FloatRangeError,
    InconsistentDataError,
    InfeasibleTableError,
    IterationLimitError,
    NormalizationError,
    PolyboundsError,
    SdpConvergenceError,
    SignalingError,
    SolverError,
    ValidationError,
    ZeroConditioningError,
)
from .model import (
    Behavior,
    CHSH_COEFFS,
    CHSH_VARIANTS,
    CorrelationTable,
    CorrelationTriple,
    Interval,
    ObservedIVTable,
    ResponseTypeDist,
    behavior_to_correlations,
    chsh_value,
    chsh_variant_values,
)
from .solvers import LpProblem, LpResult, SdpProblem, SdpResult, lp_solve, sdp_solve
from .polytope import (
    DeterministicStrategy,
    MembershipCertificate,
    boole_bell_check,
    chsh_facets_hold,
    comonotone_coupling,
    countermonotone_coupling,
    enumerate_strategies,
    fine_check,
    frechet_bounds,
    local_max,
    local_membership,
    no_signaling_max,
    triple_feasibility,
)
from .causal import (
    ACE_COEFFS,
    RESPONSE_MATRIX,
    ExperimentalData,
    ObservationalData,
    ace_bounds,
    instrumental_inequality,
    iv_table_from_response_dist,
    manski_bounds,
    pn_ps_point_bounds,
    pns_bounds,
)
from .quantum import (
    DichotomicObservable,
    GapReport,
    NpaLevel,
    TwoQubitState,
    chsh_operator,
    moment_program,
    npa_bound,
    quantum_ace_bounds,
    quantum_behavior,
    quantum_gap_report,
    tsirelson_bound,
)
from .entropic import (
    EntropyVector,
    entropic_chsh,
    entropy,
    mutual_information,
    shannon_cone_check,
)
from .oracles import (
    oracle_extremal_scan,
    oracle_feasible_vertices,
    oracle_vertex_average,
)

__all__ = [name for name in dir() if not name.startswith("_")]
