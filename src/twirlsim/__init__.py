"""twirlsim: locate spatially correlated errors in a quantum channel.

Simulates the twirl-and-measure workflow on dense few-qubit registers and
checks every estimate against the channel's exact chi-matrix diagonal.
"""

from .states import DimensionError, QuantumChannel, UnitaryMatrix
from .paulis import (
    ChiDiagonal,
    CollectiveCoefficients,
    chi_diagonal,
    collective_coefficients,
    max_weight_coefficient,
)
from .cliffords import (
    CliffordElement,
    CliffordPool,
    parse_pool,
)
from .protocol import (
    DecayEstimate,
    ErrorBudget,
    SamplePlan,
    combine_subset,
    decay_error_bound,
    derive_seed,
    fidelity_decay_from_chi,
    run_campaign,
    subset_coefficient_error,
)
from .nmr import (
    Delay,
    NmrHamiltonian,
    Pulse,
    cnot_gate,
    compile_sequence,
    crotonic_preset,
    hamiltonian_diagonal,
    time_suspension_sequence,
    zz_coupling,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionError", "QuantumChannel", "UnitaryMatrix",
    "ChiDiagonal", "CollectiveCoefficients", "chi_diagonal",
    "collective_coefficients", "max_weight_coefficient",
    "CliffordElement", "CliffordPool", "parse_pool",
    "DecayEstimate", "ErrorBudget", "SamplePlan",
    "combine_subset", "decay_error_bound", "derive_seed",
    "fidelity_decay_from_chi", "run_campaign",
    "subset_coefficient_error",
    "Delay", "NmrHamiltonian", "Pulse", "cnot_gate",
    "compile_sequence", "crotonic_preset", "hamiltonian_diagonal",
    "time_suspension_sequence", "zz_coupling",
]
