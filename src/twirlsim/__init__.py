"""twirlsim: locate spatially correlated errors in a quantum channel.

Simulates the twirl-and-measure workflow on dense few-qubit registers and
checks every estimate against the channel's exact chi-matrix diagonal.
"""

from .states import (
    DensityMatrix,
    DimensionError,
    QuantumChannel,
    UnitaryMatrix,
    apply_channel,
    partial_trace,
    projection_probability,
    purity,
    tensor,
)
from .paulis import (
    ChiDiagonal,
    CollectiveCoefficients,
    PauliString,
    chi_diagonal,
    collective_coefficients,
    enumerate_pauli_strings,
    max_weight_coefficient,
    pauli_matrix,
    pauli_weight,
)
from .cliffords import (
    CliffordElement,
    CliffordPool,
    PoolEquivalenceReport,
    build_pool,
    enumerate_cliffords,
    minimal_pool_choices,
    parse_pool,
    pool_equivalence_check,
    twirl_exact,
)
from .protocol import (
    DecayEstimate,
    ErrorBudget,
    ExperimentCounts,
    SamplePlan,
    combine_pair,
    combine_subset,
    decay_error_bound,
    decays_from_twirled_state,
    derive_seed,
    experiment_counts,
    fidelity_decay_exact,
    fidelity_decay_from_chi,
    plan_from_count,
    plan_realizations,
    protocol_initial_state,
    run_exact_campaign,
    run_sampled_campaign,
    run_sampled_protocol,
    sampled_coefficient_error,
    subset_coefficient_error,
)
from .nmr import (
    Delay,
    NmrHamiltonian,
    Pulse,
    PulseSequence,
    cnot_gate,
    compile_sequence,
    crotonic_preset,
    free_evolution,
    hamiltonian_diagonal,
    hamiltonian_matrix,
    time_suspension_sequence,
    zz_coupling,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix", "DimensionError", "QuantumChannel", "UnitaryMatrix",
    "apply_channel", "partial_trace", "projection_probability", "purity", "tensor",
    "ChiDiagonal", "CollectiveCoefficients", "PauliString", "chi_diagonal",
    "collective_coefficients", "enumerate_pauli_strings", "max_weight_coefficient",
    "pauli_matrix", "pauli_weight",
    "CliffordElement", "CliffordPool", "PoolEquivalenceReport", "build_pool",
    "enumerate_cliffords", "minimal_pool_choices", "parse_pool",
    "pool_equivalence_check", "twirl_exact",
    "DecayEstimate", "ErrorBudget", "ExperimentCounts", "SamplePlan",
    "combine_pair", "combine_subset", "decay_error_bound",
    "decays_from_twirled_state", "derive_seed", "experiment_counts",
    "fidelity_decay_exact", "fidelity_decay_from_chi",
    "plan_from_count", "plan_realizations", "protocol_initial_state",
    "run_exact_campaign", "run_sampled_campaign", "run_sampled_protocol",
    "sampled_coefficient_error", "subset_coefficient_error",
    "Delay", "NmrHamiltonian", "Pulse", "PulseSequence", "cnot_gate",
    "compile_sequence", "crotonic_preset", "free_evolution",
    "hamiltonian_diagonal", "hamiltonian_matrix", "time_suspension_sequence",
    "zz_coupling",
]
