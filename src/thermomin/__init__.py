"""Two-qubit correlation toolkit for two atoms in independent thermal reservoirs.

Computes concurrence and the Hilbert-Schmidt, trace-norm and
weak-measurement variants of measurement-induced nonlocality along the
exact and numerically integrated dissipative dynamics, with a brute-force
measurement-optimization route for validating every closed formula.
"""

from .dynamics import (
    ModelParams,
    NoBracket,
    StepTooLarge,
    Trajectory,
    analytic_state_at,
    analytic_states,
    initial_state,
    integrate,
    lindblad_rhs,
    sudden_death_time,
)
from .measures import (
    MeasureReport,
    NegativeStrength,
    NotXState,
    TraceMinCanonicalForm,
    WeakStrength,
    canonicalize_correlations,
    concurrence,
    concurrence_xstate,
    evaluate_measures,
    hs_min,
    trace_min,
    weak_factor,
    weak_hs_min,
    weak_trace_min,
)
from .oracle import (
    MeasurementDirection,
    brute_force_hs_min,
    brute_force_trace_min,
    brute_force_weak_min,
    direction_from_vector,
    projective_post_state,
    weak_post_state,
)
from .qstate import (
    BlochRep,
    NotHermitian,
    NotPositive,
    TraceNotOne,
    bloch_compose,
    bloch_decompose,
    hermitian_eigensystem,
    hs_norm_sq,
    matrix_sqrt_psd,
    partial_trace,
    trace_norm,
    validate_state,
)

__version__ = "0.1.0"
