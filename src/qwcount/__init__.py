"""Exact classical simulator and verifier for quantum-walk counting on
complete bipartite graphs."""

from .errors import ResourceLimitError
from .linalg import eigen_residual, mat_mul, unitarity_defect
from .walk import (
    BipartiteInstance,
    build_ancilla_oracle,
    build_coin,
    build_evolution,
    build_oracle,
    build_part_oracle,
    build_shift,
    restrict_to_plus_ancilla,
    uniform_state,
)
from .reduced import (
    BASIS_LABELS,
    EigenRecord,
    InvariantBasis,
    SpectralDecomposition,
    WalkAngles,
    angles_from_instance,
    build_reduced_evolution,
    eigenphase_table,
    invariant_basis,
    reduce_operator,
    reduced_uniform_state,
    spectral_decomposition,
    transfer_block,
)
from .phase_estimation import (
    GOOD_ESTIMATE_PROBABILITY,
    EigenphaseMixture,
    PhaseDistribution,
    circuit_distribution,
    exact_distribution,
    fourier_kernel,
    good_estimate_mass,
    sample,
    total_variation,
)
from .counting import (
    CountDistribution,
    adjusted_full_count_error_bound,
    adjusted_partial_count_error_bound,
    CountEstimate,
    FullCountDistribution,
    FullCountEstimate,
    full_count,
    full_count_error_bound,
    grover_count,
    grover_mixture,
    partial_count,
    partial_count_error_bound,
)
from .analysis import (
    FULL_COUNT_SUCCESS_PROBABILITY,
    BoundReport,
    SweepConfig,
    SweepRecord,
    VerificationReport,
    bound_satisfaction_mass,
    joint_success_mass,
    load_sweep_config,
    parse_sweep_config,
    run_sweep,
    verify_suite,
)

__version__ = "0.1.0"
