"""Matrix-sequence model of radial Toeplitz operators on polyanalytic
weighted Bergman spaces: exact entry integrals, structural diagnostics,
matrix-unit generators, pure-state separation, and an independent 2D
disk-quadrature oracle.

The public names below are loaded on demand (PEP 562): importing the
package, or one of its modules, loads only the modules that are used.
A name, once resolved, is a plain attribute of the package.
"""

import importlib

_EXPORTS = {
    "gammaseq": ("MatrixSeq", "block_order", "gamma_matrix", "gamma_sequence",
                 "spectral_norm", "tail_deviation"),
    "generators": ("AntitriangularReport", "SeparationPlan",
                   "antitriangular_report", "matrix_unit",
                   "nu_table", "same_frequency_plan"),
    "integration": ("beta_entry",),
    "jacobi": ("JacobiParams", "jac_norm_coeff", "q_eval"),
    "purestates": ("NotSeparableError", "PureState", "closure_gap_witness",
                   "coincidence_pair", "eval_state", "eval_state_integral",
                   "finite_state", "limit_state", "separate"),
    "symbols": ("SymbolSpec", "const_symbol", "eval_at_t",
                "indicator_symbol", "make_gp", "poly_t_symbol", "sampled_symbol"),
    "bergman_oracle": ("DiskPoint", "disk_poly", "toeplitz_entry_2d"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
