"""Independent verification path: disk polynomials and brute-force 2D
quadrature of Toeplitz matrix elements over the weighted unit disk.

The quadrature reuses no entry kernel.  It evaluates the polynomials (by
jacobi.q_eval, the recurrence the blocks also run), the weight and the
symbol pointwise and integrates them against the true weight by brute
force, so a wrong recurrence would show, as a constant symbol's block
differing from I.  The grid: uniform angular nodes, which integrate the
occurring trigonometric frequencies exactly, times composite 4-point
panels in u = sqrt(1 - t), t = r^2, which turns (1-t)^alpha dt into
2 u^(2 alpha + 1) du, singular at u = 0 for alpha < -1/2.  So the first
panel takes the Gauss rule of that weight, for every alpha > -1; it is
solved from special_fn.jacobi_recurrence, which q_eval and the blocks
also run, and shares nothing else with the blocks.  The other panels are
Gauss-Legendre times the weight, and their count follows the
integrand's degree, the weight's included (radial_panels), which caps
alpha at ALPHA_MAX; an indicator's jump and a table's knots are panel
edges.  `oracle_gaps` compares
the quadrature with gamma_sequence, which it reads only for that
comparison, so `polyberg oracle` loads the sequence path and this module
alone.  Per call it builds one radial rule, and per frequency one block,
a radial Gram, since every entry's angular factor is 1
(quadrature_block); toeplitz_entry_2d sums the full 2D grid of one entry
and is the entrywise reference.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .gammaseq import block_order, frequencies, gamma_sequence
from .jacobi import JacobiParams, jac_norm_coeff, q_eval
from .special_fn import jacobi_recurrence
from .symbols import SymbolSpec, eval_at_t

__all__ = ["disk_poly", "toeplitz_entry_2d", "oracle_gaps"]

# 4-point Gauss-Legendre nodes/weights on [-1, 1] in closed form
# (Abramowitz & Stegun 25.4): nodes +-sqrt(3/7 -+ (2/7) sqrt(6/5)),
# weights (18 +- sqrt(30)) / 36; one rule on each of RADIAL_PANELS panels
_GL_INNER = math.sqrt(3.0 / 7.0 - 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
_GL_OUTER = math.sqrt(3.0 / 7.0 + 2.0 / 7.0 * math.sqrt(6.0 / 5.0))
_GL_W_INNER = (18.0 + math.sqrt(30.0)) / 36.0
_GL_W_OUTER = (18.0 - math.sqrt(30.0)) / 36.0
_GL_NODES = np.array([-_GL_OUTER, -_GL_INNER, _GL_INNER, _GL_OUTER])
_GL_WEIGHTS = np.array([_GL_W_OUTER, _GL_W_INNER, _GL_W_INNER, _GL_W_OUTER])
RADIAL_PANELS = 256
# the radial rule's panel count grows like alpha^2 (radial_panels): a
# constant's block at n = 8 takes about 0.7 s and 160 MB at alpha = 1000,
# and about 36 s and 4.3 GB at 1e4
ALPHA_MAX = 1000.0


def _radial_part(p: int, q: int, alpha: float, r):
    # normalization / sqrt(alpha+1) * r^|p-q| * Q_min(p,q)(r^2) of the
    # (alpha, |p-q|) weight
    params = JacobiParams(alpha, float(abs(p - q)), min(p, q))
    scale = jac_norm_coeff(params) / math.sqrt(alpha + 1.0)
    return scale * r ** abs(p - q) * q_eval(params, r * r)


def disk_poly(p: int, q: int, alpha: float, r, theta):
    """Normalized disk polynomial at r e^(i theta), for arrays r and theta
    that broadcast together (a complex for scalars).

    Radial part: normalization / sqrt(alpha+1) * r^|p-q| times the shifted
    polynomial of degree min(p, q) for the (alpha, |p-q|) weight at r^2;
    angular part e^(i (p-q) theta).
    """
    if p < 0 or q < 0:
        raise ValueError(f"indices must be nonnegative, got ({p}, {q})")
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if np.any(r < 0.0) or np.any(r >= 1.0):
        raise ValueError("radius must lie in [0, 1)")
    out = _radial_part(p, q, alpha, r) * np.exp(1j * (p - q) * theta)
    return complex(out) if out.ndim == 0 else out


def weighted_grid(n_panels: int, alpha: float, breakpoints=()):
    """Composite 4-point nodes on n_panels equal panels of [0, 1] and their
    weights for 2 u^(2 alpha + 1): Gauss-Legendre times that weight on
    every panel but the first, [0, h], which takes the Gauss rule of
    u^(2 alpha + 1) itself.  Each breakpoint in [0, 1] becomes a panel
    edge, so integrands with a jump or a kink there stay panelwise
    smooth."""
    # np.unique's sorted distinct values, without the numpy.ma it imports
    edges = np.sort(np.append(np.linspace(0.0, 1.0, n_panels + 1), breakpoints))
    edges = edges[np.append(True, edges[1:] != edges[:-1])]
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    nodes = mid + half * _GL_NODES
    weights = 2.0 * nodes ** (2.0 * alpha + 1.0) * (half * _GL_WEIGHTS)
    # Golub-Welsch for u^b on [0, 1]: the eigenvalues of its Jacobi matrix,
    # and the squared first eigenvector components times the mass 1/(b + 1)
    b, h = 2.0 * alpha + 1.0, edges[1]
    diag, off = jacobi_recurrence(0.0, np.array([[b]]), 4)
    first, vecs = np.linalg.eigh(np.diag(diag[0]) + np.diag(off[0], 1) + np.diag(off[0], -1))
    nodes[0], weights[0] = h * first, 2.0 * h ** (b + 1.0) * vecs[0] ** 2 / (b + 1.0)
    return nodes.ravel(), weights.ravel()


class RadialRule(NamedTuple):
    """Radii r = sqrt(t) of the composite rule in u = sqrt(1 - t), and
    its weights times the weight function 2 u^(2 alpha + 1) and the
    symbol at t."""

    r: np.ndarray
    weights: np.ndarray


def radial_panels(a: SymbolSpec, degree: int, alpha: float) -> int:
    """Panels of the radial rule for symbol a times a product of disk
    polynomials of degree `degree` in t under the weight (1 - t)^alpha,
    never fewer than RADIAL_PANELS.

    The integrand has degree k = deg a + degree + ceil(max(alpha, 0)) in
    t, the weight counted as the polynomial it is at an integer alpha:
    without it, the mass of 2 u^(2 alpha + 1) within about 1/alpha of
    u = 1 went unresolved, and a constant symbol's block at n = 8 missed
    by 9e-3 at alpha = 200.  The oscillations are about 1/k apart in u
    over most of [0, 1] but 1/k^2 near u = 1 (t = 0, the end that
    u = sqrt(1 - t) does not stretch), so the count grows as
    k (16 + k / 8): `polyberg oracle --n 2 --xi-max 2` on g_p stays within
    3e-9 up to p = 192 (alpha <= 7.5)."""
    k = ({"poly_t": len(a.coeffs or ()) - 1, "jacobi_g": a.p}.get(a.kind, 0) + degree
         + math.ceil(max(alpha, 0.0)))
    return max(RADIAL_PANELS, k * (16 + k // 8))


def radial_rule(a: SymbolSpec, alpha: float, degree: int = 0) -> RadialRule:
    """The radial half of the tensor rule for symbol a and exponent alpha,
    sized for products of disk polynomials of degree `degree` in t, that
    is (p + q + p2 + q2) / 2 for the pair (p, q), (p2, q2).  Refuses an
    alpha above ALPHA_MAX before building anything."""
    if alpha > ALPHA_MAX:
        raise ValueError(f"alpha {alpha} exceeds {ALPHA_MAX:g}, the largest weight exponent "
                         "the disk oracle serves: its radial rule grows like alpha^2")
    # an indicator jumps at t = s^2 and a table has kinks at its knots t_q;
    # panel edges at u = sqrt(1 - t) there keep the radial integrand
    # panelwise smooth
    cuts = [a.s * a.s] if a.kind == "indicator" else [t for t, _ in a.points or ()]
    u_nodes, u_weights = weighted_grid(radial_panels(a, degree, alpha), alpha,
                                       np.sqrt(1.0 - np.array(cuts)))
    t_nodes = 1.0 - u_nodes * u_nodes
    weights = eval_at_t(a, t_nodes) * u_weights
    return RadialRule(r=np.sqrt(t_nodes), weights=weights)


def toeplitz_entry_2d(
    a: SymbolSpec,
    alpha: float,
    p: int,
    q: int,
    p2: int,
    q2: int,
    angular_nodes: Optional[int] = None,
) -> complex:
    """Inner product of (radial symbol) * disk_poly(p2, q2) against
    disk_poly(p, q) in the weighted disk space, by tensor quadrature.

    The measure in (t = r^2, theta) coordinates has density
    (alpha+1) (1-t)^alpha dt dtheta / (2 pi), that is
    (alpha+1) 2 u^(2 alpha + 1) du dtheta / (2 pi) in u = sqrt(1 - t),
    where the radial panels lie.  The uniform angular rule
    is exact for the occurring frequency provided the node count exceeds
    |p-q| + |p2-q2|; fewer nodes alias and are refused.
    """
    freq = abs(p - q) + abs(p2 - q2)
    if angular_nodes is None:
        angular_nodes = freq + 8
    if angular_nodes <= freq + 1:
        raise ValueError(
            f"{angular_nodes} angular nodes alias frequency {freq}; need more than {freq + 1}"
        )
    rule = radial_rule(a, alpha, (p + q + p2 + q2 + 1) // 2)
    thetas = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    r, theta = rule.r[None, :], thetas[:, None]
    integrand = disk_poly(p2, q2, alpha, r, theta) * np.conj(disk_poly(p, q, alpha, r, theta))
    # (alpha+1)/(2 pi) * sum_theta (2 pi / M) * sum_u w_u 2 u^(2 alpha+1) a(t) f(t, theta)
    return complex((alpha + 1.0) / angular_nodes * np.sum(integrand * rule.weights))


def quadrature_block(rule: RadialRule, n: int, alpha: float, xi: int) -> np.ndarray:
    """Every entry of the order-n block at frequency xi by the tensor rule,
    toeplitz_entry_2d's default grid: row j pairs the disk polynomial of
    indices (max(j + xi, j), max(j - xi, j)).  Each is a radial part
    times e^(i (p - q) theta) with p - q = xi in every row, so the angular
    factor of every entry is 1 and the block is (alpha + 1) times the
    radial Gram sum_r R_j R_k w_r.  The radial parts are evaluated once
    on the R radii."""
    pairs = [(max(j + xi, j), max(j - xi, j)) for j in range(block_order(n, xi))]
    radial = np.stack([_radial_part(p, q, alpha, rule.r) for p, q in pairs])
    return (alpha + 1.0) * ((radial * rule.weights) @ radial.T)


def oracle_gaps(a, n: int, alpha: float, xi_max: int) -> dict:
    """{xi: largest |2D quadrature - entry|} over the upper triangle of
    each block of gamma_sequence(a, n, alpha, xi_max)."""
    seq = gamma_sequence(a, n, alpha, xi_max)
    # row j of the block at xi >= 0 has degree j + xi / 2 in t, so a
    # product of two rows at most 2(n - 1) + xi_max; negative frequencies
    # have lower degrees
    rule = radial_rule(a, alpha, 2 * (n - 1) + xi_max)
    gaps = {}
    for xi in frequencies(n, xi_max):
        diff = np.abs(quadrature_block(rule, n, alpha, xi) - seq.block(xi))
        gaps[xi] = float(diff[np.triu_indices_from(diff)].max())
    return gaps
