"""Blocks of entry integrals of symbols against pairs of normalized Jacobi
functions.

entry_blocks gives the blocks Gamma_xi(a) of a range of frequencies as one
stack, from the block kernel of the symbol's kind; entry_block and
beta_entry read from it.  The caches are the only shared state, bounded.

A poly_t symbol sum c_k t^k of degree m acts on the orthonormal
polynomials as a(J), J the tridiagonal matrix of their recurrence
(special_fn.jacobi_recurrence), so Gamma_xi(a) is the leading d x d block
of a(J) (Golub & Meurant, Matrices, Moments and Quadrature, 2010), which J
of order d + m // 2 gives.  Horner's rule runs on the leading d columns of
the identity, one tridiagonal product of the stack per coefficient.  J is
nonnegative, of norm below 1, with entries within a relative eps, so each
entry is within 8 m (eps sum |c_k| + 2^-1074) of the exact integral (1.4 m
eps sum |c_k| measured); c_0 I is exact, entries with |j - k| > m are
literal zeros, and no moment (so no guard) applies.

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
coefficients make the poly_t bound loose.  A constant gives value * I.

An indicator or sampled symbol is a level plus a part r that vanishes
beyond x: level 0 and r = 1 up to the cut x = s^2, or the table's last
value, with r linear between the knots up to the last knot x.  The level
gives level * I.  The rest is integrated on one Gauss-Legendre panel rule
on [0, x], shared by every frequency: the panels halve toward x, every
knot is an edge, and each panel is sized from its Bernstein ellipse
(Trefethen, SIAM Review 50, 2008).  The kernel then works a frequency at
a time: the weight t^|xi| (1-t)^alpha / mass at the nodes, the
orthonormal polynomials from their three-term recurrence, and one
extended-precision product V g V^T, so its working set is nodes x d.
"""

from __future__ import annotations

import math
import numbers
import operator
from functools import lru_cache

import numpy as np

from . import jacobi
from .jacobi import MAX_MOMENT_DEGREE
from .special_fn import gauss_size, jacobi_recurrence, legendre_rule
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


def weighted_product_integral(coeffs, alpha: float, xi_abs: int) -> float:
    """Exact integral of a real-coefficient polynomial against the
    (alpha, xi_abs) weight: sum of coeffs[d] * moment(d).  Coefficients
    may be floats or exact rationals."""
    if not alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    if xi_abs < 0:
        raise ValueError(f"xi_abs must be nonnegative, got {xi_abs}")
    # floats (and anything that is not an exact rational) at their binary value
    ratios = [(c if isinstance(c, numbers.Rational) else float(c)).as_integer_ratio()
              for c in coeffs]
    den = math.lcm(*(d for _, d in ratios))
    moments, mden = next(_moments(*jacobi.dyadic(alpha), range(xi_abs, xi_abs + 1),
                                  len(ratios) - 1))
    return sum(n * (den // d) * m for (n, d), m in zip(ratios, moments)) / (den * mden)


@lru_cache(maxsize=64)
def _panel_rule(a: SymbolSpec, alpha: float, d: int):
    # The split a = level + r, r = 0 beyond x, and the panel rule on [0, x]
    # for blocks of order d: (x, level, t, log(t / x), g) with the nodes t and
    # the longdouble weights g = w r(t) (1-t)^alpha, as shared read-only
    # arrays.  The rule is built in s = x - t, which keeps 1 - t = (1 - x) + s
    # and the knots near x to full relative accuracy.  Panel edges halve
    # toward x down to the floor: the distance from x to the nearer of 1,
    # where (1-t)^alpha is singular, and x (1 + 1/MAX_MOMENT_DEGREE), beyond
    # which t^|xi| outgrows x^|xi| by more than a factor e.  Every knot is an
    # edge too, and each panel is sized from the ellipse through that point.
    if a.kind == "indicator":
        x, level, knots, rise = a.s * a.s, 0.0, np.zeros(1), np.ones(1)
    else:
        ts = np.array([t for t, _ in a.points])
        vs = np.array([v for _, v in a.points])
        x, level = ts[-1], vs[-1]
        knots, rise = x - ts[::-1], vs[::-1] - level
    if not 0.0 < x < 1.0:
        raise ValueError(f"cut {x} must lie in (0, 1)")
    floor = min(1.0 - x, x / MAX_MOMENT_DEGREE)
    halvings = x * 0.5 ** np.arange(math.ceil(math.log2(x / floor)) + 1)
    edges = np.array(sorted({0.0, *halvings.tolist(), *knots[knots < x].tolist()}))
    lo, half = edges[:-1], np.diff(edges) / 2
    degree = 2 * (d - 1) + (a.kind == "sampled") + max(math.ceil(alpha), 0)
    sizes = gauss_size((lo + half + floor) / half, degree)
    s, w = [], []
    for size in sorted(set(sizes.tolist())):
        u, wu = legendre_rule(size)
        pick = sizes == size
        s.append((lo[pick, None] + half[pick, None] * (1.0 + u)).ravel())
        w.append((half[pick, None] * wu).ravel())
    s, w = np.concatenate(s), np.concatenate(w)
    # a panel on which the table equals its last value adds nothing
    r = np.interp(s, knots, rise)
    keep = r != 0.0
    s, g = s[keep], w[keep] * r[keep] * ((1.0 - x) + s[keep]) ** alpha
    # t^xi = x^xi exp(xi log(t / x)): a rounded t would lose xi ulps
    rule = x - s, np.log1p(-s / x), g
    for arr in rule:
        arr.flags.writeable = False
    return (x, level) + rule


def _panel_blocks(a: SymbolSpec, alpha: float, xis: range, d: int) -> np.ndarray:
    # level I plus, frequency by frequency, the integral of r p_j p_k against
    # the normalized weight t^xi (1-t)^alpha / mass on the one panel rule
    x, level, t, log_ratio, g = _panel_rule(a, alpha, d)
    out = np.broadcast_to(level * np.eye(d), (len(xis), d, d)).copy()
    if not t.size:
        return out
    diag, off = jacobi_recurrence(alpha, np.array(xis, dtype=float)[:, None], d)
    num, e = jacobi.dyadic(alpha)
    # the orthonormal polynomials at t, times sqrt(mass) so that row 0 is 1
    vals = np.ones((d, t.size))
    masses = _moments(num, e, xis, 0)
    for i, (xi, ((mass,), mden)) in enumerate(zip(xis, masses)):
        for m in range(d - 1):
            vals[m + 1] = ((t - diag[i, m]) * vals[m]
                           - (off[i, m - 1] * vals[m - 1] if m else 0.0)) / off[i, m]
        # summed in extended precision
        v = vals.astype(np.longdouble)
        weight = g * (x ** xi / (mass / mden) * np.exp(xi * log_ratio))
        out[i] += np.dot(v * weight, v.T).astype(out.dtype)
    return out


def _jacobi_blocks(coeffs, alpha: float, xis: range, d: int) -> np.ndarray:
    # Horner's rule on the leading d columns; row r of J y is
    # (diag_r y_r + off_r y_(r-1)) + off_(r+1) y_(r+1) at every order
    *rest, top = coeffs
    size = d + len(rest) // 2
    diag, off = jacobi_recurrence(alpha, np.array(xis, float)[:, None], size)
    diag, off = diag[..., None], off[..., None]
    y = np.zeros((len(xis), size, d), np.result_type(*coeffs, float))
    y.reshape(len(xis), -1)[:, :d * d:d + 1] = top
    for c in reversed(rest):
        y, jy = diag * y, y
        y[:, 1:] += off * jy[:, :-1]
        y[:, :-1] += off * jy[:, 1:]
        y.reshape(len(xis), -1)[:, :d * d:d + 1] += c
    return y[:, :d]


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
    symbol.  Refuses degree d - 1 above jacobi.MAX_DEGREE, a generator for
    another alpha and, but for poly_t, the moment degree 2(d - 1) +
    max(xis) above MAX_MOMENT_DEGREE."""
    if not alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    if d - 1 > jacobi.MAX_DEGREE:
        raise ValueError(f"degree {d - 1} exceeds supported maximum {jacobi.MAX_DEGREE}")
    if a.kind != "poly_t":
        _guard_degree(2 * (d - 1) + xis[-1])
    if a.kind == "jacobi_g" and a.alpha != alpha:
        raise ValueError(f"generator {a.p} is for alpha {a.alpha}, not the weight's {alpha}; "
                         "pass its coefficients as a poly_t symbol")
    if a.kind == "const":
        out = np.broadcast_to(a.value * np.eye(d), (len(xis), d, d)).copy()
    elif a.kind in ("indicator", "sampled"):
        out = _panel_blocks(a, alpha, xis, d)
    elif a.kind == "jacobi_g":
        out = _generator_blocks(a.p, alpha, xis, d)
    else:
        out = _jacobi_blocks(a.coeffs, alpha, xis, d)
    # the upper triangle, copied below the diagonal: exactly symmetric
    for j in range(d):
        out[:, j + 1:, j] = out[:, j, j + 1:]
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
