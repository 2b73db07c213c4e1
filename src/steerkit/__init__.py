"""steerkit: quantum steering assemblages, local-hidden-state models, and
the k-vs-1 trace contradiction for bipartite pure entangled states."""

from .linalg import DEFAULT_TOL, Tolerances, partial_trace
from .states import (
    BipartitePureState,
    MultiQubitPureState,
    PureStates,
    density,
    ghz_state,
    nopa_truncated,
    qudit_schmidt_state,
    separable_state,
    theta_state,
)
from .measurements import (
    MeasurementSetting,
    angle_projectors,
    basis_from_unitary,
    bloch_projectors,
    computational_basis,
    fourier_mub_basis,
    validate_setting,
)
from .assemblage import (
    Assemblage,
    PurityProfile,
    conditional_states,
    no_signalling_check,
    purity_profile,
)
from .steering import (
    CoincidentSettingsError,
    DegenerateSettingGeometryError,
    FeasibilityOutcome,
    GhzExpectations,
    LHSModel,
    ParadoxCertificate,
    default_candidates,
    ghz_lhv_bruteforce,
    ghz_operator_expectations,
    lhs_feasibility_lp,
    lhs_reconstruct,
    pure_state_paradox,
    separable_lhs_model,
)

__version__ = "0.1.0"
