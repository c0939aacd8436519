"""Shared oracles and helpers for the test suite.

The oracles are deliberately independent of the package internals:
classical-recurrence polynomial evaluation, a single high-order
Gauss-Legendre rule for weighted integrals, exact-rational convolution,
the exact path built from Fractions (generalized binomials, recursive
moments), and the second form of the disk polynomials.

It also holds the lemmas of the previous paper (Bol. Soc. Mat. Mex. 27,
43) that no block, sequence, state or separation reads: Wendel's
Gamma-ratio inequality, a binomial bound, Euler's Beta, the orthonormal
weighted Jacobi functions and their sup bound, with the measurements
test_special_fn and test_jacobi assert their bounds on.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from polyberg.gammaseq import MatrixSeq, pack_blocks
from polyberg.integration import weighted_product_integral
from polyberg.jacobi import JacobiParams, jac_norm_coeff, q_coeffs_exact, q_eval
from polyberg.special_fn import reg_incomplete_beta
from polyberg.verify import _worse


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


def beta(x: float, y: float) -> float:
    """Euler Beta B(x, y) for x, y > 0, evaluated through math.lgamma."""
    if x <= 0.0 or y <= 0.0:
        raise ValueError(f"beta requires positive arguments, got ({x}, {y})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def binom_real(z: float, k: int) -> float:
    """Generalized binomial C(z, k) for real z and integer k >= 0.

    Computed as the falling-factorial product z (z-1) ... (z-k+1) / k!,
    never through Gamma differences.
    """
    if k < 0:
        raise ValueError(f"binom_real requires k >= 0, got {k}")
    out = 1.0
    for i in range(k):
        out *= (z - i) / (i + 1)
    return out


def wendel_bound_holds(z: float, a: float) -> bool:
    """Check Gamma(z+a)/Gamma(z) <= (z+a)^a with relative slack 1e-12."""
    if z <= 0.0 or a <= 0.0:
        raise ValueError(f"wendel_bound_holds requires z, a > 0, got ({z}, {a})")
    ratio = math.exp(math.lgamma(z + a) - math.lgamma(z))
    return ratio <= (z + a) ** a * (1.0 + 1e-12)


def binom_bound_holds(z: float, k: int) -> bool:
    """Check C(z+k, k) <= (z+k)^k / k! with relative slack 1e-12."""
    if z <= 0.0:
        raise ValueError(f"binom_bound_holds requires z > 0, got {z}")
    if k < 0:
        raise ValueError(f"binom_bound_holds requires k >= 0, got {k}")
    lhs = binom_real(z + k, k)
    rhs = (z + k) ** k / math.factorial(k)
    return lhs <= rhs * (1.0 + 1e-12)


def jac_fn_eval(p: JacobiParams, t):
    """Orthonormal weighted value k (1-t)^(alpha/2) t^(beta/2) Q(t).

    t may be a scalar or array in (0, 1); an endpoint is allowed only when
    the corresponding half-exponent is nonnegative.
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("t must lie in [0, 1]")
    if p.beta < 0 and np.any(arr == 0.0):
        raise ValueError("t = 0 not allowed for negative beta")
    if p.alpha < 0 and np.any(arr == 1.0):
        raise ValueError("t = 1 not allowed for negative alpha")
    return (jac_norm_coeff(p) * (1.0 - arr) ** (p.alpha / 2.0) * arr ** (p.beta / 2.0)
            * q_eval(p, arr))


def jac_sup_bound(p: JacobiParams, x: float) -> float:
    """Upper bound for sup |weighted function| on [0, x], valid for alpha > 0.

    Returns (2m+alpha+beta+1)^(m+1+(alpha+1)/2) * x^(beta/2), squared
    from its square root, so that past the float range (from alpha ~ 300)
    it is math.inf, still a bound.  For alpha <= 0 no proven bound of
    this shape is available and the call is refused.
    """
    if p.alpha <= 0.0:
        raise ValueError(
            f"sup bound is only established for alpha > 0; got alpha={p.alpha}"
        )
    if not 0.0 < x < 1.0:
        raise ValueError(f"x must lie in (0, 1), got {x}")
    base = 2 * p.m + p.alpha + p.beta + 1
    try:
        root = base ** ((p.m + 1 + (p.alpha + 1) / 2.0) / 2.0) * x ** (p.beta / 4.0)
    except OverflowError:  # the root is past the float range, so is the bound
        return math.inf
    return root * root


def gamma_ratio_points(rng, draws: int) -> list:
    """Random (z, a, k) points, z in [1e-6, 100], a in [1e-6, 10], k < 31."""
    return [(rng.uniform(1e-6, 100.0), rng.uniform(1e-6, 10.0), rng.randrange(31))
            for _ in range(draws)]


def gamma_ratio_violations(rng, draws: int) -> int:
    """Number of random (z, a, k) points at which the Wendel bound or the
    binomial bound fails."""
    return sum(not (wendel_bound_holds(z, a) and binom_bound_holds(z, k))
               for z, a, k in gamma_ratio_points(rng, draws))


def beta_asymmetry(rng, draws: int, lo: float, hi: float) -> float:
    """Largest |B(x, y) - B(y, x)| / B(x, y) over random x, y in [lo, hi]."""
    worst = 0.0
    for _ in range(draws):
        x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
        bxy = beta(x, y)
        worst = _worse(worst, abs(bxy - beta(y, x)) / bxy)
    return worst


def incomplete_beta_drop(p: float, q: float, points: int) -> float:
    """Largest decrease of x -> I_x(p, q) between neighbouring points of
    an even grid on [0, 1]."""
    xs = np.linspace(0.0, 1.0, points)
    vals = [reg_incomplete_beta(float(x), p, q) for x in xs]
    return float(np.max(-np.diff(vals)))


def sup_bound_ratio(cases, points: int) -> float:
    """Largest ratio of max |f| on an even grid of [0, x] to
    jac_sup_bound, over (alpha, beta, m, x) cases."""
    worst = 0.0
    for alpha, b, m, x in cases:
        params = JacobiParams(alpha, b, m)
        seen = np.max(np.abs(jac_fn_eval(params, np.linspace(0.0, x, points))))
        worst = _worse(worst, float(seen / jac_sup_bound(params, x)))
    return worst


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
