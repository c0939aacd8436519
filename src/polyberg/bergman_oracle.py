"""Independent verification path: disk polynomials and brute-force 2D
quadrature of Toeplitz matrix elements over the weighted unit disk.

The quadrature reuses none of the entry-integral machinery; polynomials,
the weight and the symbol are evaluated pointwise on a tensor grid:
uniform angular nodes, which integrate the occurring trigonometric
frequencies exactly, times composite Gauss-Legendre panels in
u = sqrt(1 - t), t = r^2.  That variable absorbs the area Jacobian and
turns the weight (1-t)^alpha dt into 2 u^(2 alpha + 1) du, a polynomial
for half-integer alpha and never singular at the boundary for
alpha >= 0.  `oracle_gaps` compares the
quadrature with gamma_sequence, which it reads only for that comparison,
so `polyberg oracle` loads the sequence path and this module alone.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .gammaseq import block_order, frequencies, gamma_sequence
from .jacobi import JacobiParams, jac_norm_coeff, q_eval
from .symbols import SymbolSpec, eval_at_t

__all__ = ["DiskPoint", "disk_poly", "toeplitz_entry_2d", "oracle_gaps"]

# 4-point Gauss-Legendre nodes/weights on [-1, 1], on each of the
# RADIAL_PANELS panels of toeplitz_entry_2d
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)
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
    min_nodes = abs(p - q) + abs(p2 - q2) + 2
    if angular_nodes is None:
        angular_nodes = min_nodes + 6
    if angular_nodes <= abs(p - q) + abs(p2 - q2) + 1:
        raise ValueError(
            f"{angular_nodes} angular nodes alias frequency "
            f"{abs(p - q) + abs(p2 - q2)}; need more than "
            f"{abs(p - q) + abs(p2 - q2) + 1}"
        )
    # indicator symbols jump at t = s^2, that is u = sqrt(1 - s^2); a panel
    # edge there keeps the radial integrand panelwise smooth
    jump = math.sqrt(1.0 - a.s * a.s) if a.kind == "indicator" else None
    u_nodes, u_weights = gauss_legendre_grid(RADIAL_PANELS, jump)
    t_nodes = 1.0 - u_nodes * u_nodes
    thetas = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes

    r = np.sqrt(t_nodes)
    grid = DiskPoint(r=r[None, :], theta=thetas[:, None])
    integrand = (
        eval_at_t(a, t_nodes)[None, :]
        * disk_poly(p2, q2, alpha, grid)
        * np.conj(disk_poly(p, q, alpha, grid))
    )
    weighted = integrand * (2.0 * u_nodes ** (2.0 * alpha + 1.0) * u_weights)[None, :]
    # (alpha+1)/(2 pi) * sum_theta (2 pi / M) * sum_u w_u 2 u^(2 alpha+1) f(t, theta)
    return complex((alpha + 1.0) / angular_nodes * np.sum(weighted))


def oracle_gaps(a, n: int, alpha: float, xi_max: int) -> dict:
    """{xi: largest |2D quadrature - entry|} over the upper triangle of
    each block of gamma_sequence(a, n, alpha, xi_max).  Entry (j, k) at
    frequency xi pairs the disk polynomials of indices
    (max(j + xi, j), max(j - xi, j)) and (max(k + xi, k), max(k - xi, k))."""
    seq = gamma_sequence(a, n, alpha, xi_max)
    return {
        xi: max(abs(toeplitz_entry_2d(a, alpha, max(j + xi, j), max(j - xi, j),
                                      max(k + xi, k), max(k - xi, k)) - seq.block(xi)[j, k])
                for j in range(block_order(n, xi)) for k in range(j, block_order(n, xi)))
        for xi in frequencies(n, xi_max)
    }
