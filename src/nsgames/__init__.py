"""Finite no-signalling correlations, operator dilations, and game values."""

from .channels import (
    CommutationReport,
    FiniteChannel,
    Povm,
    Pvm,
    UcpOnFunctions,
    apply_ucp,
    channels_commute,
    commutes_with,
    dump_channel,
    dump_povm,
    load_channel,
    load_povm,
    povm_to_ucp,
    ucp_to_povm,
)
from .correlations import (
    Correlation,
    LocalityReport,
    NsCertificate,
    deterministic_correlation,
    dump_correlation,
    from_local,
    from_qc,
    from_qs,
    is_local,
    is_no_signalling,
    load_correlation,
    marginal_A,
    marginal_B,
    product_correlation,
    section,
)
from .dilation import (
    CommutingDilation,
    Dilation,
    joint_commuting_dilation,
    naimark,
    product_channel,
    product_povm_commuting,
    simultaneous_naimark,
    tensor_povm,
)
from .errors import (
    NotPsdError,
    NumericError,
    ParseError,
    PreconditionError,
    TooLargeError,
    ValidationError,
)
from .games import (
    CylinderGame,
    FiniteGame,
    SequenceEntry,
    ValueReport,
    all_win,
    asymptotic_sequence,
    chsh,
    dump_game,
    embed,
    inner_value_sequence,
    iterate,
    load_game,
    memory_game,
    never_win,
    payoff,
    product_game,
    random_game,
    relabelings,
    value,
)
from .linalg import (
    commutator_norm,
    extend_isometry_to_unitary,
    herm_eig,
    hermitize,
    kron,
    psd_sqrt,
)
from .optimize import (
    SeesawState,
    local_value,
    ns_value,
    ns_value_lp,
    qs_seesaw,
    seesaw_measurement_update,
    seesaw_state_update,
    top_deterministic_strategies,
)
from .simplex import LinearProgram, SimplexResult, simplex_solve

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
