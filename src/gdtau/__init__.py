"""Exact engine for the order-r reduced hierarchy at its distinguished
initial point: the Lax operator's power table and flows, correlator tables,
constant dictionaries, constraint checks and the large-r limit.  `PsiDO`,
`frac_power` and `rth_root` read whole operators off the power table for the
benchmark's stages; no command builds one."""

from .algebra import DiffPoly, ParamPoly, diff_x
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
    NotStable,
    WeightExceeded,
)
from .hierarchy import Hierarchy, LaxOperator, gd_flow, hierarchy, lax
from .psido import PsiDO, frac_power, rth_root
from .wconstraints import (
    ConstantsDictionary,
    VerificationReport,
    WOperatorSpec,
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
