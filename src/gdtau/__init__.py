"""Exact engine for the order-r reduced hierarchy at its distinguished
initial point: operator calculus, correlator tables, constraint checks."""

from .algebra import (
    DiffPoly,
    ParamPoly,
    diff_x,
    grading,
    integrate_x,
)
from .bgw import (
    CorrelatorTable,
    TauSeries,
    connected_correlators_pde,
    connected_from_disconnected,
    disconnected_from_connected,
    index_multisets,
    log_tau,
    pde_correlator,
    series_from_correlators,
    string_residual,
    tau_exp,
)
from .errors import (
    AlphabetMismatch,
    EngineError,
    IndexDivisible,
    InsufficientDepth,
    InvariantViolated,
    NotExact,
    NotHomogeneous,
    NotStable,
    WeightExceeded,
)
from .hierarchy import Hierarchy, LaxOperator, gd_flow, hierarchy, lax, omega
from .psido import (
    PsiDO,
    commutator,
    compose,
    frac_power,
    lax_operator,
    minus_part,
    plus_part,
    residue,
    rth_root,
)
from .wconstraints import (
    ConstantsDictionary,
    VerificationReport,
    WOperatorSpec,
    apply_S,
    apply_Wred,
    c_from_d,
    constants,
    d_from_c,
    recursion_correlators,
    rho_in_d,
    solve_sigma_from_c,
    stabilized_correlators,
    table_in_c,
    table_substitute,
    verify_constraints,
)

__version__ = "0.1.0"
