"""Numerical laboratory for ANECE collaborative-pilot schemes."""

from .model import (
    CheckResult,
    DofReport,
    NetworkConfig,
    SnrGrid,
    TwoUserModifiedConfig,
    validate_config,
    validate_modified_config,
    validate_pairwise_config,
)
from .pilots import (
    ModifiedPilotPair,
    PilotSet,
    build_pairwise_matrix,
    build_pilots,
    build_square_pilots,
    validate_pilots,
)
from .numkernel import (
    ChannelRealization,
    log2det_grid,
    numerical_rank,
    substream,
    synth_modified_session,
    synth_phase1,
    synth_phase2,
)
from .capacity import CapacityCurve
from .dofcalc import (
    DofScenario,
    dof_cij,
    dof_entropy_terms,
    dof_gap,
    dof_leakage,
    dof_modified_two_user,
    dof_pairwise,
    dof_phase1,
    dof_phase2_lower,
    dof_phase2_lower_plus,
    dof_phase2_upper,
    dof_two_user_original,
    freedom_oracle,
    modified_freedom_oracle,
)
from .verify import (
    SlopeFit,
    default_grid,
    eig_growth_suite,
    fit_slope,
    identity_suite,
    rank_oracle_suite,
    verify_slope,
)

__all__ = [name for name in dir() if not name.startswith("_")]
