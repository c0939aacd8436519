"""Blocks of entry integrals of symbols against pairs of normalized Jacobi
functions.

entry_blocks is the one entry kernel: it gives the blocks Gamma_xi(a) of a
whole range of frequencies as one stack, from one of two block kernels
chosen by the symbol kind.  entry_block and beta_entry read from it.

Polynomial symbols are integrated exactly, in Python integers over a
common denominator.  With the weight exponent alpha = N / 2^e (a binary
float), the moment of degree d is d! 2^(e (d+1)) / P[d+1], where
P[j] = prod_{i=1..j} (N + i 2^e).  Per frequency the exact kernel puts
the moments over one denominator once and forms the Hankel vector W[l],
the integral of t^(|xi|+l) (1-t)^alpha a.  For a poly_t symbol that is
the contraction W[l] = sum_c S_c M[l + c] with its scaled coefficients
S.  For a generator g_p of the weight's own alpha, Rodrigues' formula
(DLMF 18.5.5) gives it in closed form: W[l] = C(K, p) M'[K] at
K = |xi| + l, where M' are the moments for the exponent
alpha + p = (N + p 2^e) / 2^e, formed in integers.  So W[l] = 0 for
K < p, and g_p's coefficients are never formed.  A generator for another
alpha is a plain polynomial under this weight and takes the contraction.
Each Jacobi polynomial Q_j and W give the row
y_j[b] = sum_a Q_j[a] W[a + b]; entry (j, k) is sum_b Q_k[b] y_j[b] over
one denominator, rounded once by a correctly rounded int / int division.
So every orthogonality relation the entries inherit holds to the last bit
(zeros come out as literal 0.0).  A constant symbol gives value * I by
orthonormality.

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

The caches are the only shared state.  They are bounded, sized so that
one n = 8 request up to |xi| = 190 keeps all its hits.
"""

from __future__ import annotations

import math
import numbers
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

# symbols integrated on the panel rule rather than exactly
FLOAT_KINDS = ("indicator", "sampled")

def _guard_degree(degree: int) -> None:
    if degree > MAX_MOMENT_DEGREE:
        raise ValueError(
            f"moment degree {degree} exceeds guard {MAX_MOMENT_DEGREE}"
        )


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
    if xi_abs < 0:
        raise ValueError(f"xi_abs must be nonnegative, got {xi_abs}")
    nums, den = _scaled(coeffs)
    moments, mden = next(_moments(*jacobi.dyadic(alpha), range(xi_abs, xi_abs + 1),
                                  len(nums) - 1))
    return sum(c * m for c, m in zip(nums, moments)) / (den * mden)


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


def _exact_blocks(a: SymbolSpec, alpha: float, xis: range, d: int) -> np.ndarray:
    # Upper triangles, by the Hankel contraction of the module docstring:
    # entry (j, k) is the rational integral of Q_j Q_k a, rounded once.
    if a.kind == "const":
        # orthonormality makes the block value * I
        return np.broadcast_to(a.value * np.eye(d), (len(xis), d, d)).copy()
    num, e = jacobi.dyadic(alpha)
    cplx = a.kind == "poly_t" and any(isinstance(c, complex) for c in a.coeffs)
    if a.kind == "jacobi_g" and a.alpha == alpha:
        # Rodrigues' formula: t^K g_p integrates to C(K, p) times the
        # moment of degree K for the exponent alpha + p (0 for K < p)
        runs = _moments(num + (a.p << e), e, xis, 2 * (d - 1))

        def hankels(xi, moments, mden):
            return [([math.comb(xi + l, a.p) * m for l, m in enumerate(moments)], mden)]
    else:
        if a.kind == "jacobi_g":
            # a generator for another weight exponent is a plain polynomial here
            parts = [jacobi.q_coeffs_int(a.alpha, 0.0, a.p)]
        elif cplx:
            parts = [_scaled([complex(c).real for c in a.coeffs]),
                     _scaled([complex(c).imag for c in a.coeffs])]
        else:
            parts = [_scaled(a.coeffs)]
        # the largest moment degree above |xi|: that of entry (d - 1, d - 1)
        runs = _moments(num, e, xis, 2 * (d - 1) + len(parts[0][0]) - 1)

        def hankels(xi, moments, mden):
            return [([sum(c * moments[l + m] for m, c in enumerate(nums))
                      for l in range(2 * d - 1)], den * mden) for nums, den in parts]
    out = np.zeros((len(xis), d, d), dtype=complex if cplx else float)
    for i, (xi, run) in enumerate(zip(xis, runs)):
        ws = hankels(xi, *run)
        qs = [jacobi.q_coeffs_int(alpha, float(xi), m) for m in range(d)]
        for j, (qj, dj) in enumerate(qs):
            rows = [([sum(c * w[m + b] for m, c in enumerate(qj)) for b in range(d)], dj * wden)
                    for w, wden in ws]
            for k in range(j, d):
                qk, dk = qs[k]
                vals = [sum(c * y for c, y in zip(qk, row)) / (row_den * dk)
                        for row, row_den in rows]
                out[i, j, k] = norm_product(alpha, xi, j, k) * (
                    complex(*vals) if len(vals) == 2 else vals[0])
    return out


def entry_blocks(a: SymbolSpec, alpha: float, xis: range, d: int) -> np.ndarray:
    """The d x d blocks Gamma_xi(a) for xi in the range xis >= 0, as one
    exactly symmetric (len(xis), d, d) stack, complex only for a complex
    symbol.  Indicator and sampled symbols take the panel-rule kernel,
    the others the exact one.  Refuses degree d - 1 above
    jacobi.MAX_DEGREE and moment degrees above MAX_MOMENT_DEGREE (the
    largest is 2(d - 1) + max(xis), plus the degree of a poly_t symbol or
    of a generator for another alpha)."""
    if not alpha > -1.0:
        raise ValueError(f"alpha must exceed -1, got {alpha}")
    if d - 1 > jacobi.MAX_DEGREE:
        raise ValueError(f"degree {d - 1} exceeds supported maximum {jacobi.MAX_DEGREE}")
    _guard_degree(2 * (d - 1) + xis[-1])
    kernel = _panel_blocks if a.kind in FLOAT_KINDS else _exact_blocks
    out = kernel(a, alpha, xis, d)
    # the upper triangle, copied below the diagonal: exactly symmetric
    for j in range(d):
        out[:, j + 1:, j] = out[:, j, j + 1:]
    return out


def entry_block(a: SymbolSpec, alpha: float, xi: int, d: int) -> np.ndarray:
    """The block of entry_blocks at the single frequency xi (any sign)."""
    xi_abs = abs(int(xi))
    return entry_blocks(a, alpha, range(xi_abs, xi_abs + 1), d)[0]


def beta_entry(a: SymbolSpec, alpha: float, xi: int, j: int, k: int):
    """Entry integral of symbol a for frequency xi and indices (j, k):
    the product of normalization constants times the integral of
    a(sqrt(t)) Q_j(t) Q_k(t) (1-t)^alpha t^|xi|.

    Entry [j, k] of entry_block(a, alpha, xi, max(j, k) + 1): that block is
    exactly symmetric, and its guards are the entry's.
    """
    if j < 0 or k < 0:
        raise ValueError(f"indices must be nonnegative, got ({j}, {k})")
    return entry_block(a, alpha, xi, max(j, k) + 1)[j, k].item()
