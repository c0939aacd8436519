"""Independent verification path: disk polynomials and brute-force 2D
quadrature of Toeplitz matrix elements over the weighted unit disk.

The quadrature reuses no entry kernel.  It evaluates the polynomials (by
jacobi.q_eval, the recurrence the blocks also run), the weight and the
symbol pointwise and integrates them against the true weight by brute
force, so a wrong recurrence would show, as a constant symbol's block
differing from I.  The grid: uniform angular nodes, which integrate the
occurring trigonometric frequencies exactly, times composite
Gauss-Legendre panels in u = sqrt(1 - t), t = r^2.  That variable absorbs
the area Jacobian and turns the weight (1-t)^alpha dt into
2 u^(2 alpha + 1) du, a polynomial for half-integer alpha and never
singular at the boundary for alpha >= 0.  `oracle_gaps` compares the
quadrature with gamma_sequence, which it reads only for that comparison,
so `polyberg oracle` loads the sequence path and this module alone.  Per
call it builds one radial rule, and per frequency one table of the
block's disk polynomials on the shared grid, whose Gram contraction is
the whole block.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .gammaseq import block_order, frequencies, gamma_sequence
from .jacobi import JacobiParams, jac_norm_coeff, q_eval
from .symbols import SymbolSpec, eval_at_t

__all__ = ["DiskPoint", "disk_poly", "toeplitz_entry_2d", "oracle_gaps"]

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


class DiskPoint(NamedTuple):
    r: float
    theta: float


def disk_poly(p: int, q: int, alpha: float, pt: DiskPoint):
    """Normalized disk polynomial at r e^(i theta).

    Radial part: normalization / sqrt(alpha+1) * r^|p-q| times the shifted
    polynomial of degree min(p, q) for the (alpha, |p-q|) weight at r^2;
    angular part e^(i (p-q) theta).
    """
    if p < 0 or q < 0:
        raise ValueError(f"indices must be nonnegative, got ({p}, {q})")
    r = np.asarray(pt.r, dtype=float)
    theta = np.asarray(pt.theta, dtype=float)
    if np.any(r < 0.0) or np.any(r >= 1.0):
        raise ValueError("radius must lie in [0, 1)")
    params = JacobiParams(alpha, float(abs(p - q)), min(p, q))
    radial = (
        jac_norm_coeff(params)
        / math.sqrt(alpha + 1.0)
        * r ** abs(p - q)
        * q_eval(params, r * r)
    )
    out = radial * np.exp(1j * (p - q) * theta)
    return complex(out) if out.ndim == 0 else out


def gauss_legendre_grid(n_panels: int, breakpoint: float | None = None):
    """Composite 4-point Gauss-Legendre nodes and weights on n_panels equal
    panels of [0, 1].  A breakpoint becomes one more panel edge, so
    integrands with a jump there stay panelwise smooth."""
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    if breakpoint is not None:
        edges = np.sort(np.append(edges, breakpoint))
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * _GL_NODES).ravel(), (half * _GL_WEIGHTS).ravel()


class RadialRule(NamedTuple):
    """Radii r = sqrt(t) of the composite rule in u = sqrt(1 - t), and
    its weights times the weight function 2 u^(2 alpha + 1) and the
    symbol at t."""

    r: np.ndarray
    weights: np.ndarray


def radial_rule(a: SymbolSpec, alpha: float) -> RadialRule:
    """The radial half of the tensor rule for symbol a and exponent alpha."""
    # indicator symbols jump at t = s^2, that is u = sqrt(1 - s^2); a panel
    # edge there keeps the radial integrand panelwise smooth
    jump = math.sqrt(1.0 - a.s * a.s) if a.kind == "indicator" else None
    u_nodes, u_weights = gauss_legendre_grid(RADIAL_PANELS, jump)
    t_nodes = 1.0 - u_nodes * u_nodes
    weights = eval_at_t(a, t_nodes) * (2.0 * u_nodes ** (2.0 * alpha + 1.0) * u_weights)
    return RadialRule(r=np.sqrt(t_nodes), weights=weights)


def _grid(rule: RadialRule, angular_nodes: int) -> DiskPoint:
    thetas = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes
    return DiskPoint(r=rule.r[None, :], theta=thetas[:, None])


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
    rule = radial_rule(a, alpha)
    grid = _grid(rule, angular_nodes)
    integrand = disk_poly(p2, q2, alpha, grid) * np.conj(disk_poly(p, q, alpha, grid))
    # (alpha+1)/(2 pi) * sum_theta (2 pi / M) * sum_u w_u 2 u^(2 alpha+1) a(t) f(t, theta)
    return complex((alpha + 1.0) / angular_nodes * np.sum(integrand * rule.weights))


def quadrature_block(rule: RadialRule, n: int, alpha: float, xi: int) -> np.ndarray:
    """Every entry of the order-n block at frequency xi by the tensor rule,
    toeplitz_entry_2d's default grid: row j pairs the disk polynomial of
    indices (max(j + xi, j), max(j - xi, j)).  Each has frequency xi, so
    one d x M x R table on M = 2|xi| + 8 angular nodes holds them all,
    and the block is its weighted Gram contraction."""
    nodes = 2 * abs(xi) + 8
    grid = _grid(rule, nodes)
    d = block_order(n, xi)
    table = np.stack([disk_poly(max(j + xi, j), max(j - xi, j), alpha, grid) for j in range(d)])
    # the short angular sum first, then the radial sum in numpy's pairwise
    # order, as toeplitz_entry_2d sums; one BLAS dot over all M R nodes
    # drifts up to 1.7e-14 from it
    gram = np.einsum("jmr,kmr->jkr", table.conj(), table * rule.weights)
    return (alpha + 1.0) / nodes * gram.sum(axis=-1)


def oracle_gaps(a, n: int, alpha: float, xi_max: int) -> dict:
    """{xi: largest |2D quadrature - entry|} over the upper triangle of
    each block of gamma_sequence(a, n, alpha, xi_max)."""
    seq = gamma_sequence(a, n, alpha, xi_max)
    rule = radial_rule(a, alpha)
    gaps = {}
    for xi in frequencies(n, xi_max):
        diff = np.abs(quadrature_block(rule, n, alpha, xi) - seq.block(xi))
        gaps[xi] = float(diff[np.triu_indices_from(diff)].max())
    return gaps
