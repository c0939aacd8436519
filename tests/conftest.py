"""Shared oracles and helpers for the test suite.

The oracles are deliberately independent of the package internals:
classical-recurrence polynomial evaluation, a single high-order
Gauss-Legendre rule for weighted integrals, exact-rational convolution,
the exact path built from Fractions (generalized binomials, recursive
moments), and the second form of the disk polynomials.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from polyberg.gammaseq import MatrixSeq, pack_blocks
from polyberg.integration import weighted_product_integral
from polyberg.jacobi import JacobiParams, jac_fn_eval, q_coeffs_exact


def classical_jacobi_recurrence(alpha: float, beta: float, m: int, x):
    """Three-term-recurrence evaluation of the classical degree-m Jacobi
    polynomial on [-1, 1]; completely independent of the monomial path."""
    x = np.asarray(x, dtype=float)
    if m == 0:
        return np.ones_like(x)
    pm1 = np.ones_like(x)
    p = 0.5 * (alpha - beta + (alpha + beta + 2.0) * x)
    if m == 1:
        return p
    for k in range(2, m + 1):
        a1 = 2.0 * k * (k + alpha + beta) * (2.0 * k + alpha + beta - 2.0)
        a2 = (2.0 * k + alpha + beta - 1.0) * (alpha**2 - beta**2)
        a3 = (
            (2.0 * k + alpha + beta - 2.0)
            * (2.0 * k + alpha + beta - 1.0)
            * (2.0 * k + alpha + beta)
        )
        a4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + alpha + beta)
        p, pm1 = ((a2 + a3 * x) * p - a4 * pm1) / a1, p
    return p


def shifted_jacobi_oracle(alpha: float, beta: float, m: int, t):
    """Shifted polynomial on (0, 1) through the recurrence oracle."""
    return classical_jacobi_recurrence(alpha, beta, m, 2.0 * np.asarray(t) - 1.0)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(240)
_GL01_NODES = 0.5 * (_GL_NODES + 1.0)
_GL01_WEIGHTS = 0.5 * _GL_WEIGHTS


def quadrature_01(f) -> float:
    """Single 240-point Gauss-Legendre rule on [0, 1]; independent of the
    package's composite panels."""
    return float(np.sum(_GL01_WEIGHTS * f(_GL01_NODES)))


def weighted_quadrature(alpha: float, beta: int, h) -> float:
    """Integral of (1-t)^alpha t^beta h(t) over [0, 1] by Gauss-Legendre
    after the substitution t = 1 - u^2, which turns the (1-t)^alpha
    endpoint factor into u^(2 alpha + 1); exact-grade for polynomial h
    whenever 2 alpha is an integer."""
    u = _GL01_NODES
    t = 1.0 - u * u
    vals = 2.0 * u ** (2.0 * alpha + 1.0) * t**beta * h(t)
    return float(np.sum(_GL01_WEIGHTS * vals))


def conv_exact(u, v):
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def exact_pair_integral(alpha: float, beta: int, p: int, q: int) -> float:
    """Weighted inner product of the two shifted polynomials, computed
    through exact rational convolution and the exact moments."""
    conv = conv_exact(q_coeffs_exact(alpha, beta, p), q_coeffs_exact(alpha, beta, q))
    return weighted_product_integral(conv, alpha, beta)


def binom_exact(upper: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for i in range(k):
        out = out * (upper - i) / (i + 1)
    return out


def q_coeffs_fraction(alpha: float, beta: float, m: int) -> tuple:
    """Monomial coefficients C(a+b+m+k, k) C(b+m, m-k) (-1)^(m-k) of the
    shifted Jacobi polynomial, built as Fractions."""
    a = Fraction(alpha)
    b = Fraction(beta)
    return tuple(
        binom_exact(a + b + m + k, k) * binom_exact(b + m, m - k) * (-1) ** (m - k)
        for k in range(m + 1)
    )


def norm_sq_fraction(alpha: float, beta: int, m: int) -> Fraction:
    """(2m+a+b+1) prod_{i=1..b} (m+a+i)/(m+i) as a Fraction."""
    a = Fraction(alpha)
    out = Fraction(2 * m) + a + beta + 1
    for i in range(1, beta + 1):
        out = out * (m + a + i) / (m + i)
    return out


@lru_cache(maxsize=None)
def moment_fraction(degree: int, alpha: float) -> Fraction:
    """Integral of t^degree (1-t)^alpha over [0, 1] by the recursion
    M(d) = M(d-1) d / (alpha + d + 1)."""
    if degree == 0:
        return 1 / (Fraction(alpha) + 1)
    return moment_fraction(degree - 1, alpha) * degree / (Fraction(alpha) + degree + 1)


def norm_product_fraction(alpha: float, xi_abs: int, j: int, k: int) -> float:
    return math.sqrt(
        float(norm_sq_fraction(alpha, xi_abs, j) * norm_sq_fraction(alpha, xi_abs, k))
    )


@lru_cache(maxsize=None)
def pair_fraction(alpha: float, xi_abs: int, j: int, k: int) -> tuple:
    return tuple(
        conv_exact(q_coeffs_fraction(alpha, xi_abs, j), q_coeffs_fraction(alpha, xi_abs, k))
    )


def poly_integral_fraction(coeffs, alpha: float, xi_abs: int, j: int, k: int) -> Fraction:
    """Integral of sum coeffs[d] t^d against Q_j Q_k (1-t)^alpha t^xi_abs,
    from Fraction convolutions and moments."""
    pair = pair_fraction(alpha, xi_abs, j, k)
    full = conv_exact(
        pair, [c if isinstance(c, Fraction) else Fraction(float(c)) for c in coeffs]
    )
    return sum(c * moment_fraction(d + xi_abs, alpha) for d, c in enumerate(full))


def poly_entry_fraction(coeffs, alpha: float, xi_abs: int, j: int, k: int) -> float:
    """poly_integral_fraction rounded once."""
    return float(poly_integral_fraction(coeffs, alpha, xi_abs, j, k))


def disk_poly_alt(p: int, q: int, alpha: float, r: float, theta: float) -> complex:
    """Disk polynomial through the weighted orthonormal function:
    e^(i (p-q) theta) (1-r^2)^(-alpha/2) / sqrt(alpha+1) times the
    normalized function at r^2."""
    params = JacobiParams(alpha, float(abs(p - q)), min(p, q))
    return complex(
        np.exp(1j * (p - q) * theta)
        * (1.0 - r * r) ** (-alpha / 2.0)
        / math.sqrt(alpha + 1.0)
        * jac_fn_eval(params, r * r)
    )


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _json_scalar(v):
    return complex(*v) if isinstance(v, list) else v


def read_gamma_out(obj) -> MatrixSeq:
    """The sequence a `gamma --out` JSON object holds, from its n, alpha,
    matrices[*].rows (frequency -n+1 first) and scalar_limit; a complex
    number is an [re, im] pair.  The symbol is not read."""
    n = obj["n"]
    blocks = ([[_json_scalar(v) for v in row] for row in m["rows"]] for m in obj["matrices"])
    return MatrixSeq(n, obj["alpha"], pack_blocks(n, blocks), _json_scalar(obj["scalar_limit"]))
