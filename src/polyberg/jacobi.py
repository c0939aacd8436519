"""Shifted Jacobi polynomials on (0, 1) and their L2-normalized functions.

Q_m, of degree m for the weight (1-t)^alpha t^beta, is evaluated in floats
only by the three-term recurrence the blocks run (special_fn), with no
degree limit.  Its monomial coefficients (degree <= 64) and squared
normalization constants are exact, held as Python integers over one
common integer denominator, for the exact generator blocks and checks.
The weight exponents are binary floats, alpha = p / 2^e, so the
generalized binomials expand into integer products scaled by powers of
2^e.  A float is made from such a number by one int / int division, which
Python rounds correctly; that is what lets the downstream moment
integration produce exact zeros where orthogonality demands them.
`q_coeffs_exact` and `norm_coeff_sq_exact` return the same numbers as
reduced Fractions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .special_fn import jacobi_recurrence, jacobi_values

__all__ = [
    "MAX_DEGREE",
    "MAX_MOMENT_DEGREE",
    "JacobiParams",
    "check_alpha",
    "q_coeffs_int",
    "q_coeffs_exact",
    "q_eval",
    "jac_norm_coeff",
    "norm_coeff_sq_int",
    "norm_coeff_sq_exact",
    "jac_fn_eval",
    "jac_sup_bound",
]

MAX_DEGREE = 64
# the largest moment degree integrated exactly (see integration)
MAX_MOMENT_DEGREE = 192
# holds every (beta, m) of one n = 8 request up to |xi| = 190 (1528 keys)
_CACHE_SIZE = 2048


def check_alpha(alpha: float) -> None:
    """Refuse a weight exponent alpha that is not a finite number above -1."""
    if not -1.0 < alpha < math.inf:
        raise ValueError(f"alpha must exceed -1 and be finite, got {alpha}")


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents and degree: weight (1-t)^alpha t^beta, degree m."""

    alpha: float
    beta: float
    m: int

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        if not self.beta > -1.0:
            raise ValueError(f"beta must exceed -1, got {self.beta}")
        if self.m < 0:
            raise ValueError(f"degree must be nonnegative, got {self.m}")


def dyadic(x: float) -> tuple[int, int]:
    """(p, e) with x = p / 2^e exactly."""
    p, den = float(x).as_integer_ratio()
    return p, den.bit_length() - 1


@lru_cache(maxsize=_CACHE_SIZE)
def q_coeffs_int(alpha: float, beta: float, m: int) -> tuple[tuple[int, ...], int]:
    """Monomial coefficients of the degree-m polynomial as integer
    numerators over one common denominator: (numerators, denominator).

    Coefficient of t^k is C(alpha+beta+m+k, k) C(beta+m, m-k) (-1)^(m-k).
    With alpha = pa / 2^e and beta = pb / 2^e, that is C(m, k) times two
    integer products over 2^(e m) m!.
    """
    if m > MAX_DEGREE:
        raise ValueError(f"degree {m} exceeds supported maximum {MAX_DEGREE}")
    if m < 0:
        raise ValueError(f"degree must be nonnegative, got {m}")
    m = int(m)
    pa, ea = dyadic(alpha)
    pb, eb = dyadic(beta)
    e = max(ea, eb)
    pa <<= e - ea
    pb <<= e - eb
    q = 1 << e
    # the products prod_{i=m+1..m+k} (pa + pb + i q) and prod_{i=k+1..m} (pb + i q)
    lows = accumulate((pa + pb + (m + k) * q for k in range(1, m + 1)), operator.mul, initial=1)
    tops = [*accumulate((pb + k * q for k in range(m, 0, -1)), operator.mul, initial=1)][::-1]
    nums = tuple((-1) ** (m - k) * math.comb(m, k) * low * top
                 for k, (low, top) in enumerate(zip(lows, tops)))
    return nums, math.factorial(m) << (e * m)


def q_coeffs_exact(alpha: float, beta: float, m: int) -> tuple:
    """Monomial coefficients of the degree-m polynomial, exact rationals
    (Fractions; the module is imported here, off the float paths)."""
    from fractions import Fraction

    nums, den = q_coeffs_int(alpha, beta, m)
    return tuple(Fraction(c, den) for c in nums)


def q_eval(p: JacobiParams, t):
    """Evaluate the shifted polynomial at t in [0, 1] (scalar or array): the
    orthonormal p_m by the recurrence, times Q_m's leading coefficient
    C(s+2m, m), s = alpha + beta, and c_1 ... c_m, as the product of the
    ratios c_k (s+2k)(s+2k-1) / (k (s+k)); c_1 with its factor 1 + s
    cancelled, which the recurrence leaves as 0 / 0 at s = -1.  Within
    eps (4 (m+1) + (m+1)^2 / 4) max(C(m+alpha, m), C(m+beta, m), 1), the
    square term from the ends (against mpmath, m <= 192)."""
    x, (a, b, m) = np.asarray(t, dtype=float), (p.alpha, p.beta, p.m)
    s, k = a + b, np.arange(2.0, m + 1)
    with np.errstate(invalid="ignore"):
        diag, off = jacobi_recurrence(a, np.array([[b]]), m + 1)
    first = math.sqrt((1.0 + a) * (1.0 + b) / (3.0 + s))
    off[:, :1] = first / (2.0 + s)
    lead = np.prod(off[0, 1:] * (s + 2 * k) * (s + 2 * k - 1) / (k * (s + k)))
    vals = jacobi_values(x.reshape(-1, 1), diag, off, m + 1)[:, 0, m]
    return (lead * (first if m else 1.0) * vals.reshape(x.shape))[()]


@lru_cache(maxsize=_CACHE_SIZE)
def norm_coeff_sq_int(alpha: float, beta: int, m: int) -> tuple[int, int]:
    """Squared normalization constant (integer beta) as an integer
    (numerator, denominator) pair.

    (2m+a+b+1) Gamma(m+a+b+1) m! / (Gamma(m+a+1) Gamma(m+b+1)); the two
    Gamma ratios telescope for integer b to prod_{i=1..b} (m+a+i)/(m+i).
    """
    if beta < 0:
        raise ValueError(f"integer beta must be nonnegative, got {beta}")
    beta, m = int(beta), int(m)
    p, e = dyadic(alpha)
    q = 1 << e
    num = ((2 * m + beta + 1) * q + p) * math.prod(
        (m + i) * q + p for i in range(1, beta + 1)
    )
    return num, math.prod(range(m + 1, m + beta + 1)) << (e * (beta + 1))


def norm_coeff_sq_exact(alpha: float, beta: int, m: int):
    """Squared normalization constant as an exact rational (a Fraction;
    integer beta)."""
    from fractions import Fraction

    return Fraction(*norm_coeff_sq_int(alpha, beta, m))


def jac_norm_coeff(p: JacobiParams) -> float:
    """Normalization constant making the weighted polynomial unit-norm,
    for a nonnegative integer beta (any other is refused):

    sqrt((2m+alpha+beta+1) Gamma(m+alpha+beta+1) m!
         / (Gamma(m+alpha+1) Gamma(m+beta+1))).
    """
    if not (float(p.beta).is_integer() and p.beta >= 0):
        raise ValueError(f"jac_norm_coeff needs a nonnegative integer beta, got {p.beta}")
    num, den = norm_coeff_sq_int(p.alpha, int(p.beta), p.m)
    return math.sqrt(num / den)


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
