"""Scalar Gamma/Beta kernels and the Jacobi recurrence.

Everything here is a pure function of floats, reentrant and safe to call
concurrently.  log_gamma is math.lgamma behind a domain check.  The
regularized incomplete Beta is the continued fraction of DLMF 8.17.22,
evaluated by the modified Lentz method (Thompson & Barnett, J. Comput.
Phys. 64, 1986) behind a log-gamma front factor; the indicator and
sampled blocks take the same fraction behind a front factor of their own.
jacobi_recurrence gives the Jacobi matrices those blocks and the
polynomial blocks are built on; jacobi_values, which runs it, is the
package's one float evaluator of Jacobi polynomials.  No block calls
log_gamma or reg_incomplete_beta; they stay because the benchmark's
traced mode wraps both by name (perfbench/spans.py).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_gamma",
    "jacobi_recurrence",
    "jacobi_values",
    "reg_incomplete_beta",
]

_EPS = float(np.finfo(float).eps)

# the incomplete Beta's continued fraction stops at this many terms (it
# needs about 2200 at p = q = 10^7)
MAX_FRACTION_TERMS = 10000


def log_gamma(z: float) -> float:
    """ln Gamma(z) for z > 0 (math.lgamma)."""
    if z <= 0.0 or math.isnan(z):
        raise ValueError(f"log_gamma requires z > 0, got {z}")
    return math.lgamma(z)


def jacobi_recurrence(a: float, b: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Recurrences t p_k = c_(k+1) p_(k+1) + d_k p_k + c_k p_(k-1) of the
    orthonormal polynomials for the weights (1-t)^a t^b on (0, 1), one per
    exponent of the column b (shape (count, 1)): the diagonals d_0..d_(size-1)
    and off-diagonals c_1..c_(size-1) of the Jacobi matrices as rows
    (DLMF 18.9.2 moved to (0, 1), free of cancellation for a + b >= 0)."""
    k = np.arange(1.0, size)
    s = 2.0 * k + a + b
    rest = (2.0 * k * (k + a + b + 1.0) + (a + b) * (b + 1.0)) / (s * (s + 2.0))
    off = np.sqrt(k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0)))
    return np.concatenate([(b + 1.0) / (a + b + 2.0), rest], axis=1), off


def jacobi_values(x: np.ndarray, diag: np.ndarray, off: np.ndarray, size: int) -> np.ndarray:
    """The orthonormal polynomials 0 .. size - 1 at the points x (a column),
    for each recurrence row of jacobi_recurrence: (points, rows, size)."""
    vals = np.ones((size, len(x), len(diag)))
    for m in range(size - 1):
        vals[m + 1] = ((x - diag[:, m]) * vals[m]
                       - (off[:, m - 1] * vals[m - 1] if m else 0.0)) / off[:, m]
    return vals.transpose(1, 2, 0)


def reg_incomplete_beta(x: float, p: float, q: float) -> float:
    """Regularized incomplete Beta I_x(p, q) = (1/B(p, q)) * integral of
    t^(p-1) (1-t)^(q-1) over [0, x] = x^p (1-x)^q / (p B(p, q)) / f, with
    f = 1 + d_1 / (1 + d_2 / (1 + ...)) the continued fraction of DLMF
    8.17.22.  Above x = (p+1)/(p+q+2) it takes 1 - I_{1-x}(q, p), where the
    fraction converges fast.  The value J the fraction gives (I, or 1 - I
    after that switch) has relative error at most 2 eps (S + 16), where
    S = |ln Gamma(p+q)| + |ln Gamma(p)| + |ln Gamma(q)| + |p ln x| +
    |q ln(1-x)|; the switch adds the roundings of 1 - x and 1 - J.
    Refuses a fraction that has not converged after MAX_FRACTION_TERMS
    terms.
    """
    if p <= 0.0 or q <= 0.0:
        raise ValueError(f"reg_incomplete_beta requires p, q > 0, got ({p}, {q})")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"reg_incomplete_beta requires 0 <= x <= 1, got {x}")
    if x == 0.0 or x == 1.0:
        return float(x)
    switch = x > (p + 1.0) / (p + q + 2.0)
    if switch:
        x, p, q = 1.0 - x, q, p
    value = math.exp(log_gamma(p + q) - log_gamma(p) - log_gamma(q)
                     + p * math.log(x) + q * math.log1p(-x)) / (p * _beta_fraction(x, p, q))
    return 1.0 - value if switch else value


def _beta_fraction(x: float, p: float, q: float) -> float:
    # the continued fraction f = 1 + d_1 / (1 + d_2 / (1 + ...)) of DLMF
    # 8.17.22, I_x(p, q) = x^p (1-x)^q / (p B(p, q)) / f, by the modified
    # Lentz method (Thompson & Barnett 1986): f is the product of the ratios
    # c d of successive convergents; 1e-300 stands in for a zero
    f, c, d = 1.0, 1.0, 0.0
    for k in range(1, MAX_FRACTION_TERMS + 1):
        m = k // 2
        if k % 2:
            dk = -(p + m) * (p + q + m) * x / ((p + 2 * m) * (p + 2 * m + 1.0))
        else:
            dk = m * (q - m) * x / ((p + 2 * m - 1.0) * (p + 2 * m))
        d = 1.0 / ((1.0 + dk * d) or 1e-300)
        c = (1.0 + dk / c) or 1e-300
        f *= c * d
        if abs(c * d - 1.0) <= _EPS:
            return f
    raise ValueError("reg_incomplete_beta: the continued fraction has not "
                     f"converged after {MAX_FRACTION_TERMS} terms")
