"""Entry integrals of symbols against pairs of normalized Jacobi functions.

Polynomial symbols are integrated exactly, in Python integers over a
common denominator.  With the weight exponent alpha = p / 2^e (a binary
float), the moment of degree d is d! 2^(e (d+1)) / P[d+1], where
P[j] = prod_{i=1..j} (p + i 2^e) comes from one prefix table per alpha.
An entry convolves the integer coefficients of the two Jacobi polynomials
with the symbol's, contracts the result against the moments over one
denominator and rounds once, by a correctly rounded int / int division;
so every orthogonality relation the entries inherit holds to the last
bit (zeros come out as literal 0.0).  A constant symbol gives value * I
by orthonormality.  Indicator symbols use truncated moments through the
regularized incomplete Beta; sampled symbols fall back to composite
Gauss-Legendre quadrature.

The caches are the only shared state.  They are bounded, sized so that
one n = 8 request up to |xi| = 190 keeps all its hits.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import warnings
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import jacobi
from .special_fn import reg_incomplete_beta
from .symbols import SymbolSpec, eval_at_t

__all__ = [
    "MomentKey",
    "moment",
    "truncated_moment",
    "beta_entry",
    "weighted_product_integral",
    "norm_product",
]

MAX_MOMENT_DEGREE = 192

GL_PANELS = 256
# 4-point Gauss-Legendre nodes/weights on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)

_FACTORIALS = tuple(
    itertools.accumulate(range(1, MAX_MOMENT_DEGREE + 1), operator.mul, initial=1)
)


class MomentKey(NamedTuple):
    k: int
    alpha: float
    xi_abs: int


@lru_cache(maxsize=16)
def _moment_table(alpha: float) -> tuple[int, int, tuple[int, ...]]:
    # (p, e, P) with alpha = p / 2^e and P[j] = prod_{i=1..j} (p + i 2^e)
    # for j <= MAX_MOMENT_DEGREE + 1
    p, e = jacobi.dyadic(alpha)
    q = 1 << e
    prefix = itertools.accumulate(
        (p + i * q for i in range(1, MAX_MOMENT_DEGREE + 2)), operator.mul, initial=1
    )
    return p, e, tuple(prefix)


def _moment_float(degree: int, alpha: float) -> float:
    # integral of t^degree (1-t)^alpha over [0, 1]
    #   = degree! / prod_{i=1..degree+1} (alpha + i)
    _, e, prefix = _moment_table(alpha)
    return (_FACTORIALS[degree] << (e * (degree + 1))) / prefix[degree + 1]


def _check_key(key: MomentKey) -> None:
    if key.k < 0 or key.xi_abs < 0:
        raise ValueError(f"moment indices must be nonnegative, got {key}")
    if key.k + key.xi_abs > MAX_MOMENT_DEGREE:
        raise ValueError(
            f"moment degree {key.k + key.xi_abs} exceeds guard {MAX_MOMENT_DEGREE}"
        )
    if not key.alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {key.alpha}")


def moment(key: MomentKey) -> float:
    """Weight moment: integral of t^(k+xi_abs) (1-t)^alpha over [0, 1]."""
    key = MomentKey(*key)
    _check_key(key)
    return _moment_float(key.k + key.xi_abs, key.alpha)


@lru_cache(maxsize=2048)
def _truncated_moment_float(degree: int, alpha: float, x: float) -> float:
    full = _moment_float(degree, alpha)
    return full * reg_incomplete_beta(x, degree + 1, alpha + 1.0)


def truncated_moment(key: MomentKey, x: float) -> float:
    """Partial weight moment over [0, x]."""
    key = MomentKey(*key)
    _check_key(key)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"truncation point must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    return _truncated_moment_float(key.k + key.xi_abs, key.alpha, float(x))


def _guard_degree(degree: int) -> None:
    if degree > MAX_MOMENT_DEGREE:
        raise ValueError(
            f"moment degree {degree} exceeds guard {MAX_MOMENT_DEGREE}"
        )


def _conv(u, v) -> tuple[int, ...]:
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        if a:
            for l, b in enumerate(v):
                out[i + l] += a * b
    return tuple(out)


def _scaled(coeffs) -> tuple[list[int], int]:
    # integer numerators over one common denominator; floats (and anything
    # that is not an exact rational) are taken at their binary value
    ratios = [
        c.as_integer_ratio() if isinstance(c, numbers.Rational)
        else float(c).as_integer_ratio()
        for c in coeffs
    ]
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def _contract(nums, den: int, alpha: float, xi_abs: int) -> float:
    # sum_d nums[d] * moment(d + xi_abs) / den, rounded once: each moment
    # d! 2^(e (d+1)) / P[d+1] is put over P[top+1] by the tail product
    # P[top+1] / P[d+1] = prod_{i=d+2..top+1} (p + i 2^e)
    top = xi_abs + len(nums) - 1
    _guard_degree(top)
    p, e, prefix = _moment_table(alpha)
    q = 1 << e
    acc = 0
    tail = 1
    for d in range(top, xi_abs - 1, -1):
        c = nums[d - xi_abs]
        if c:
            acc += (c * _FACTORIALS[d] * tail) << (e * (d + 1))
        tail *= p + (d + 1) * q
    return acc / (den * prefix[top + 1])


@lru_cache(maxsize=8192)
def _pair_int(alpha: float, xi_abs: int, j: int, k: int) -> tuple[tuple[int, ...], int]:
    # coefficients of Q_j * Q_k for the (alpha, xi_abs) weight, one denominator
    cj, dj = jacobi.q_coeffs_int(alpha, float(xi_abs), j)
    ck, dk = jacobi.q_coeffs_int(alpha, float(xi_abs), k)
    return _conv(cj, ck), dj * dk


@lru_cache(maxsize=8192)
def norm_product(alpha: float, xi_abs: int, j: int, k: int) -> float:
    """Product of the two normalization constants for indices j and k."""
    nj, dj = jacobi.norm_coeff_sq_int(alpha, xi_abs, j)
    nk, dk = jacobi.norm_coeff_sq_int(alpha, xi_abs, k)
    return math.sqrt((nj * nk) / (dj * dk))


def weighted_product_integral(coeffs, alpha: float, xi_abs: int) -> float:
    """Exact integral of a real-coefficient polynomial against the
    (alpha, xi_abs) weight: sum of coeffs[d] * moment(d).  Coefficients
    may be floats or exact rationals."""
    if not alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    return _contract(*_scaled(coeffs), alpha, xi_abs)


def _indicator_entry(s: float, alpha: float, xi_abs: int, j: int, k: int) -> float:
    x = s * s
    pair, den = _pair_int(alpha, xi_abs, j, k)
    _guard_degree(len(pair) - 1 + xi_abs)
    terms = [
        c / den * _truncated_moment_float(d + xi_abs, alpha, x)
        for d, c in enumerate(pair)
        if c
    ]
    return math.fsum(terms)


def _panel_edges(n_panels: int, breakpoint: float | None = None) -> np.ndarray:
    if breakpoint is None or not 0.0 < breakpoint < 1.0:
        return np.linspace(0.0, 1.0, n_panels + 1)
    left = min(max(int(round(n_panels * breakpoint)), 1), n_panels - 1)
    return np.concatenate(
        [
            np.linspace(0.0, breakpoint, left + 1),
            np.linspace(breakpoint, 1.0, n_panels - left + 1)[1:],
        ]
    )


def gauss_legendre_grid(n_panels: int, breakpoint: float | None = None):
    """Composite 4-point Gauss-Legendre nodes and weights on [0, 1].

    If a breakpoint is supplied the panel edges are aligned with it so
    integrands with a jump there stay panelwise smooth.
    """
    edges = _panel_edges(n_panels, breakpoint)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights


def _sampled_entry(a: SymbolSpec, alpha: float, xi_abs: int, j: int, k: int):
    if alpha < 0.0:
        warnings.warn(
            "sampled-symbol quadrature with alpha < 0 has an endpoint "
            "singularity; accuracy is degraded",
            RuntimeWarning,
            stacklevel=3,
        )
    nodes, weights = gauss_legendre_grid(GL_PANELS)
    pj = jacobi.JacobiParams(alpha, float(xi_abs), j)
    pk = jacobi.JacobiParams(alpha, float(xi_abs), k)
    integrand = (
        eval_at_t(a, nodes)
        * jacobi.q_eval(pj, nodes)
        * jacobi.q_eval(pk, nodes)
        * (1.0 - nodes) ** alpha
        * nodes**xi_abs
    )
    return np.sum(weights * integrand)


def beta_entry(a: SymbolSpec, alpha: float, xi: int, j: int, k: int):
    """Entry integral of symbol a for frequency xi and indices (j, k):
    the product of normalization constants times the integral of
    a(sqrt(t)) Q_j(t) Q_k(t) (1-t)^alpha t^|xi|.

    Constants give value * I; polynomial symbols are integrated exactly;
    indicators through truncated moments; sampled symbols by composite
    quadrature.  The (j, k) and (k, j) calls share one code path, so
    symmetry is exact.
    """
    if not alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    if j < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({j}, {k})")
    if k < j:
        j, k = k, j
    xi_abs = abs(int(xi))
    if a.kind == "const":
        # orthonormality makes the block value * I (0.0 * value keeps the
        # entry's type); the exact path's degree guards still apply
        if k > jacobi.MAX_DEGREE:
            raise ValueError(f"degree {k} exceeds supported maximum {jacobi.MAX_DEGREE}")
        _guard_degree(j + k + xi_abs)
        return a.value if j == k else 0.0 * a.value
    kk = norm_product(alpha, xi_abs, j, k)
    if a.kind in ("poly_t", "jacobi_g"):
        pair, pair_den = _pair_int(alpha, xi_abs, j, k)

        def entry(nums, den):
            return _contract(_conv(pair, nums), pair_den * den, alpha, xi_abs)

        if a.kind == "jacobi_g":
            # the generator's exact coefficients, not the float copies stored
            # for pointwise evaluation, which would spoil the structural zeros
            return kk * entry(*jacobi.q_coeffs_int(a.alpha, 0.0, a.p))
        if any(isinstance(c, complex) for c in a.coeffs):
            re = entry(*_scaled([complex(c).real for c in a.coeffs]))
            im = entry(*_scaled([complex(c).imag for c in a.coeffs]))
            return kk * complex(re, im)
        return kk * entry(*_scaled(a.coeffs))
    if a.kind == "indicator":
        return kk * _indicator_entry(a.s, alpha, xi_abs, j, k)
    if a.kind == "sampled":
        val = _sampled_entry(a, alpha, xi_abs, j, k)
        out = kk * val
        return complex(out) if np.iscomplexobj(np.asarray(val)) else float(out)
    raise ValueError(f"unknown symbol kind {a.kind!r}")
