"""Blocks of entry integrals of symbols against pairs of normalized Jacobi
functions.

entry_blocks gives the blocks Gamma_xi(a) of a range of frequencies as one
stack, from the exact kernel for a generator and the float kernel for
every other kind; entry_block and beta_entry read from it.  The caches are
the only shared state, bounded.

The float kernel.  With p the orthonormal polynomials of the (alpha, xi)
weight w, J their tridiagonal recurrence matrix (special_fn.
jacobi_recurrence) and M(x) the integral over [0, x] of p p^T w, so that
M(1) = I, t p = J p makes the integral over [0, x] of t^k p p^T w equal
J^k M(x) (Golub & Meurant, Matrices, Moments and Quadrature, 2010).  A
constant or poly_t symbol is sum_k c_k t^k, an indicator 1[t < x] at the
cut x = s^2, and a table its last value plus c_q (x_q - t)_+ at each kink
x_q, c_q the change of slope.  So Gamma_xi(a) is the leading d x d block of
sum_k J^k B_k, B_k = c_k I + sum_q w_qk M(x_q), by Horner's rule on the
leading d columns: J of order d + m // 2 for a polynomial of degree m,
whose powers of J are banded, and d + 1 for a table.  M has closed forms
(DLMF 18.8, 18.9.15): with w1 = t w (1-t) and lambda_j = j (j + xi +
alpha + 1), M_jk = w1(x) (p_j p_k' - p_k p_j')(x) / (lambda_j - lambda_k)
off the diagonal, p_k' = kappa_k R_(k-1) with R orthonormal for
(alpha + 1, xi + 1), M_00 = I_x(xi + 1, alpha + 1), and the diagonal from
J M = M J.  Its weights are tabulated up to the moment guard, so only a
symbol with a cut refuses a moment degree 2 (d - 1) + xi above
MAX_MOMENT_DEGREE or a degree d - 1 above jacobi.MAX_DEGREE.  A symbol
with no cut and degree 0 runs no recurrence.  A block does not depend on
the range it is requested in.  J is nonnegative, of norm below 1, with
entries within a relative eps, so a poly_t entry of degree m is within
8 m (eps sum |c_k| + 2^-1074) of the exact integral (1.4 m eps sum |c_k|
measured), c_0 I is exact and entries with |j - k| > m are literal zeros.
Indicator blocks are within about 1e-14 of mpmath; a table's hinge sum
adds up to 2 eps sum_q |c_q| (0.53 eps sum_q |c_q| measured).

A generator g_p of the weight's own alpha = N / 2^e is integrated in
integers.  The moment of degree d is d! 2^(e (d+1)) / P[d+1], with
P[j] = prod_{i=1..j} (N + i 2^e).  By Rodrigues' formula (DLMF 18.5.5)
the integral of t^K (1-t)^alpha g_p is C(K, p) M'[K], M' the moments for
alpha + p: the Hankel vector W[l] at K = |xi| + l, 0 for K < p.  Row
y_j[b] = sum_a Q_j[a] W[a + b], and entry (j, k) = sum_b Q_k[b] y_j[b] is
rounded once by a correctly rounded int / int division, times the norm
product, rounded once; the moments' head and the squared norms are
carried along xi.  So zeros are literal 0.0, as the structure test needs.
A generator for another alpha is refused: its large alternating
coefficients make the poly_t bound loose.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import lru_cache

import numpy as np

from . import jacobi
from .jacobi import MAX_MOMENT_DEGREE
from .special_fn import _beta_fraction, jacobi_recurrence, jacobi_values
from .symbols import SymbolSpec

__all__ = [
    "beta_entry",
    "entry_block",
    "entry_blocks",
    "weighted_product_integral",
    "norm_product",
]

def _guard_degree(degree: int) -> None:
    if degree > MAX_MOMENT_DEGREE:
        raise ValueError(
            f"moment degree {degree} exceeds guard {MAX_MOMENT_DEGREE}"
        )


def _moments(num: int, e: int, xis: range, span: int):
    # per xi of the range, the moments of degrees xi .. top = xi + span for
    # the weight exponent num / 2^e as integer numerators over the one
    # denominator P[top+1] = tail * head: moment d! 2^(e (d+1)) / P[d+1] is
    # scaled by P[top+1] / P[d+1], and the head P[xi] is carried along xi.
    _guard_degree(xis[-1] + span)
    q = 1 << e
    head = math.prod(num + i * q for i in range(1, xis[0] + 1))
    for xi in xis:
        nums, tail = [], 1
        for d in range(xi + span, xi - 1, -1):
            nums.append((math.factorial(d) * tail) << (e * (d + 1)))
            tail *= num + (d + 1) * q
        yield nums[::-1], tail * head
        head *= num + (xi + 1) * q


@lru_cache(maxsize=8192)
def norm_product(alpha: float, xi_abs: int, j: int, k: int) -> float:
    """Product of the two normalization constants for indices j and k,
    the factor of entry (j, k) of a generator block."""
    nj, dj = jacobi.norm_coeff_sq_int(alpha, xi_abs, j)
    nk, dk = jacobi.norm_coeff_sq_int(alpha, xi_abs, k)
    return math.sqrt((nj * nk) / (dj * dk))


def weighted_product_integral(coeffs, alpha: float, xi_abs: int, den: int = 1) -> float:
    """Exact integral of a real-coefficient polynomial against the
    (alpha, xi_abs) weight, rounded once: sum of coeffs[d] * moment(d) / den.
    Coefficients may be floats or exact rationals, such as integer
    numerators over their common denominator den."""
    jacobi.check_alpha(alpha)
    if xi_abs < 0:
        raise ValueError(f"xi_abs must be nonnegative, got {xi_abs}")
    # floats (and anything that is not an exact rational) at their binary value
    ratios = [(c if isinstance(c, numbers.Rational) else float(c)).as_integer_ratio()
              for c in coeffs]
    lcm = math.lcm(*(d for _, d in ratios))
    moments, mden = next(_moments(*jacobi.dyadic(alpha), range(xi_abs, xi_abs + 1),
                                  len(ratios) - 1))
    return sum(n * (lcm // d) * m for (n, d), m in zip(ratios, moments)) / (lcm * den * mden)


def _pieces(a: SymbolSpec):
    # (poly, cuts, rows): the c_k, and the cuts x_q < 1 with their rows
    # w_q: (1) for an indicator, (c_q x_q, -c_q) for a table's kinks
    if a.kind in ("const", "poly_t"):
        return (a.value,) if a.kind == "const" else a.coeffs, np.zeros(0), np.zeros((0, 1))
    if a.kind == "indicator":
        x, poly, cuts, rows = a.s * a.s, (), np.array([a.s * a.s]), np.ones((1, 1))
    else:
        ts, vs = np.array([t for t, _ in a.points]), np.array([v for _, v in a.points])
        x, poly = ts[-1], (vs[-1],)
        slopes = np.diff(np.diff(vs) / np.diff(ts), prepend=0.0, append=0.0)
        keep = (slopes != 0.0) & (ts > 0.0)
        cuts, c = ts[keep], slopes[keep]
        rows = np.stack([c * cuts, -c], 1)
    if not 0.0 < x < 1.0:
        raise ValueError(f"cut {x} must lie in (0, 1)")
    return poly, cuts, rows


def _cut_weights(x: np.ndarray, alpha: float, kind: str):
    # rows xi = 0 .. MAX_MOMENT_DEGREE, columns the cuts: w1 = x^(xi+1)
    # (1-x)^(alpha+1) / B(xi+1, alpha+1), carried from xi = 0 by its ratio,
    # and M_00 = I_x(xi+1, alpha+1) summed down from the anchor at the guard
    # in the positive terms of DLMF 8.17.20 (the forward recurrence cancels);
    # the anchor's fraction takes the carried w1 as its front factor, and
    # its refusal at a huge alpha names the symbol's kind and alpha
    top, q = MAX_MOMENT_DEGREE, alpha + 1.0
    k = np.arange(top, dtype=float)[:, None]
    w1 = np.cumprod(np.concatenate([(q * x * (1.0 - x) ** q)[None], x * ((k + q + 1.0) / (k + 1.0))]),
                    axis=0)
    p = top + 1.0
    try:
        anchor = np.array([1.0 - w / (q * _beta_fraction(1.0 - c, q, p))
                           if c > (p + 1.0) / (p + q + 2.0) else w / (p * _beta_fraction(c, p, q))
                           for c, w in zip(x.tolist(), w1[-1].tolist())])
    except ValueError:
        raise ValueError(f"{kind} symbol: the incomplete Beta at a cut has not converged "
                         f"at alpha {alpha}") from None
    m00 = np.cumsum(np.concatenate([anchor[None], (w1[:-1] / (k + 1.0))[::-1]]), axis=0)[::-1]
    return w1, m00


# frequencies per chunk over the number of cuts: a chunk holds (cuts, rows,
# frequencies, d + 1, d + 1) products, so a sequence of a long table peaks
# where one of its blocks does
_CHUNK = 2048


def _float_blocks(a: SymbolSpec, alpha: float, xis: range, d: int) -> np.ndarray:
    # the module docstring's sum, a chunk of frequencies at a time.  M is
    # linear in the products w1 p_j p_k' and its diagonal recurrence does
    # not depend on the cut, so the products are summed over the cuts
    # first, one sum per column of rows.  The sums run in cut order along
    # the leading axis (numpy adds whole slabs there, as a table's two
    # columns make every slab longer than one), and all else is elementwise
    # in xi, so a block does not depend on its chunk
    poly, cuts, rows = _pieces(a)
    top = max(len(poly), rows.shape[1] if cuts.size else 0) - 1
    size = d + (top if cuts.size else top // 2)
    if cuts.size:
        if d - 1 > jacobi.MAX_DEGREE:
            raise ValueError(f"degree {d - 1} exceeds supported maximum {jacobi.MAX_DEGREE}")
        _guard_degree(2 * (d - 1) + xis[-1])
        w1, m00 = _cut_weights(cuts, alpha, a.kind)
        x, j, sums = cuts[:, None], np.arange(d + 1), rows[..., None]
    out = np.empty((len(xis), d, d), np.result_type(*poly, rows, float))
    step = max(1, _CHUNK // max(cuts.size, 1))
    for lo in range(0, len(xis), step):
        at = np.array(xis[lo:lo + step])
        xi = at[:, None].astype(float)
        if cuts.size:
            diag, off = jacobi_recurrence(alpha, xi, d + 1)
            rdiag, roff = jacobi_recurrence(alpha + 1.0, xi + 1.0, d)
            kappa = j[1:] * np.cumprod(np.concatenate([np.ones_like(xi), roff], axis=1) / off, axis=1)
            p = jacobi_values(x, diag, off, d + 1)
            dp = np.concatenate([np.zeros_like(p[..., :1]), kappa * jacobi_values(x, rdiag, roff, d)],
                                axis=-1)
            # w1 p_j p_k' over (cut, column, xi, j, k), summed over the cuts
            total = (((sums * w1[at].T[:, None])[..., None] * p[:, None])[..., None]
                     * dp[:, None, :, None]).sum(axis=0)
            lam = (j[:, None] - j) * (j[:, None] + j + xi[..., None] + (alpha + 1.0))
            lam[:, j, j] = 1.0
            m = (total - total.swapaxes(-1, -2)) / lam
            m[..., 0, 0] = (sums * m00[at].T[:, None]).sum(axis=0)
            # the diagonal from J M = M J at (i + 1, i)
            for i in range(d - 1):
                m[..., i + 1, i + 1] = m[..., i, i] + (
                    off[:, i + 1] * m[..., i + 2, i] + (diag[:, i + 1] - diag[:, i]) * m[..., i + 1, i]
                    - (off[:, i - 1] * m[..., i + 1, i - 1] if i else 0.0)) / off[:, i]
        elif top:
            diag, off = jacobi_recurrence(alpha, xi, size)
        # row r of J y is (diag_r y_r + off_r y_(r-1)) + off_(r+1) y_(r+1)
        y = np.zeros((len(at), size, d), out.dtype)
        for k in range(top, -1, -1):
            if k < top:
                y, jy = diag[..., None] * y, y
                y[:, 1:] += off[..., None] * jy[:, :-1]
                y[:, :-1] += off[..., None] * jy[:, 1:]
            if cuts.size:
                y += m[k, :, :size, :d]
            if k < len(poly):
                y.reshape(len(at), -1)[:, :d * d:d + 1] += poly[k]
        out[lo:lo + step] = y[:, :d]
    return out


def _norms_sq(num: int, e: int, xis: range, d: int):
    # per xi, jacobi.norm_coeff_sq_int(num / 2^e, xi, m) for m < d, its
    # products prod_{i=1..xi} ((m + i) q + num) and (m + xi)! / m! carried
    q = 1 << e
    prods = [math.prod((m + i) * q + num for i in range(1, xis[0] + 1)) for m in range(d)]
    facs = [math.prod(range(m + 1, m + xis[0] + 1)) for m in range(d)]
    for xi in xis:
        yield [(((2 * m + xi + 1) * q + num) * prods[m], facs[m] << (e * (xi + 1)))
               for m in range(d)]
        prods = [pm * ((m + xi + 1) * q + num) for m, pm in enumerate(prods)]
        facs = [fm * (m + xi + 1) for m, fm in enumerate(facs)]


def _generator_blocks(p: int, alpha: float, xis: range, d: int) -> np.ndarray:
    # upper triangles by the closed form of the module docstring
    num, e = jacobi.dyadic(alpha)
    out = np.zeros((len(xis), d, d))
    runs = zip(xis, _moments(num + (p << e), e, xis, 2 * (d - 1)), _norms_sq(num, e, xis, d))
    for i, (xi, (moments, mden), norms) in enumerate(runs):
        w = [math.comb(xi + l, p) * m for l, m in enumerate(moments)]
        qs = [jacobi.q_coeffs_int(alpha, float(xi), m) for m in range(d)]
        for j, ((qj, dj), (nj, nj_den)) in enumerate(zip(qs, norms)):
            row = [sum(map(operator.mul, qj, w[b:])) for b in range(d)]
            for k in range(j, d):
                (qk, dk), (nk, nk_den) = qs[k], norms[k]
                out[i, j, k] = math.sqrt((nj * nk) / (nj_den * nk_den)) * (
                    sum(map(operator.mul, qk, row)) / (dj * mden * dk))
    return out


def entry_blocks(a: SymbolSpec, alpha: float, xis: range, d: int) -> np.ndarray:
    """The d x d blocks Gamma_xi(a) for xi in the range xis >= 0, as one
    exactly symmetric (len(xis), d, d) stack, complex only for a complex
    symbol: a generator's from the exact kernel, every other kind's from
    the float kernel (module docstring).  Refuses an alpha that is not a
    finite number above -1 and a generator for another alpha; each
    kernel refuses what it cannot serve: a symbol with a cut (an
    indicator, or a table with a kink) a degree d - 1 above
    jacobi.MAX_DEGREE and the moment degree 2(d - 1) + max(xis) above
    MAX_MOMENT_DEGREE, a generator that moment degree and a coefficient
    degree above jacobi.MAX_DEGREE.  A constant, a poly_t symbol and a
    table with no kink are refused at no order or frequency.  A stack
    with a non-finite entry (a huge alpha overflows the recurrence) is
    refused, and so is a generator whose exact integer ratios leave the
    float range."""
    jacobi.check_alpha(alpha)
    if a.kind == "jacobi_g" and a.alpha != alpha:
        raise ValueError(f"generator {a.p} is for alpha {a.alpha}, not the weight's {alpha}; "
                         "pass its coefficients as a poly_t symbol")
    if a.kind == "jacobi_g":
        try:
            out = _generator_blocks(a.p, alpha, xis, d)
        except OverflowError:
            raise ValueError(f"generator {a.p}: an exact ratio of its blocks leaves the "
                             f"float range at alpha {alpha}") from None
    else:
        # a huge alpha overflows the recurrence; the non-finite stack is refused below
        with np.errstate(all="ignore"):
            out = _float_blocks(a, alpha, xis, d)
    # the upper triangle, copied below the diagonal: exactly symmetric
    for j in range(d):
        out[:, j + 1:, j] = out[:, j, j + 1:]
    if not np.isfinite(out).all():
        raise ValueError(f"{a.kind} symbol has a non-finite block entry at alpha {alpha}")
    return out


def entry_block(a: SymbolSpec, alpha: float, xi: int, d: int) -> np.ndarray:
    """The block of entry_blocks at the single frequency xi (any sign)."""
    xi_abs = abs(int(xi))
    return entry_blocks(a, alpha, range(xi_abs, xi_abs + 1), d)[0]


def beta_entry(a: SymbolSpec, alpha: float, xi: int, j: int, k: int):
    """Entry [j, k] of entry_block(a, alpha, xi, max(j, k) + 1), with that
    block's guards: the integral of a(sqrt(t)) Q_j(t) Q_k(t) (1-t)^alpha
    t^|xi| times the two normalization constants."""
    if j < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({j}, {k})")
    return entry_block(a, alpha, xi, max(j, k) + 1)[j, k].item()
