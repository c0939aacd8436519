"""Matrix-sequence model of radial Toeplitz operators on polyanalytic
weighted Bergman spaces: exact entry integrals, structural diagnostics,
matrix-unit generators, pure-state separation, and an independent 2D
disk-quadrature oracle."""

from .gammaseq import (
    MatrixSeq,
    block_order,
    gamma_matrix,
    gamma_sequence,
    spectral_norm,
    tail_deviation,
)
from .generators import (
    AntitriangularReport,
    NuTable,
    SeparationPlan,
    antitriangular_report,
    cross_frequency_plan,
    matrix_unit,
    nu_table,
    same_frequency_plan,
)
from .integration import MomentKey, beta_entry, moment
from .jacobi import (
    JacobiParams,
    jac_fn_eval,
    jac_norm_coeff,
    jac_sup_bound,
    q_coeffs,
    q_eval,
)
from .purestates import (
    NotSeparableError,
    PureState,
    closure_gap_witness,
    coincidence_pair,
    eval_state,
    eval_state_integral,
    finite_state,
    limit_state,
    separate,
    submatrix_coincidence_pair,
    witness_indices,
)
from .special_fn import (
    beta,
    binom_bound_holds,
    log_gamma,
    reg_incomplete_beta,
    wendel_bound_holds,
)
from .symbols import (
    SymbolSpec,
    boundary_limit,
    const_symbol,
    eval_at_t,
    indicator_symbol,
    make_gp,
    poly_t_symbol,
    sampled_symbol,
)
from .bergman_oracle import DiskPoint, disk_poly, toeplitz_entry_2d

__version__ = "0.1.0"
