"""Independent verification path: disk polynomials and brute-force 2D
quadrature of Toeplitz matrix elements over the weighted unit disk.

Nothing here reuses the exact-moment machinery; polynomials, the weight
and the symbol are evaluated pointwise on a tensor grid (uniform angular
nodes, which integrate the occurring trigonometric frequencies exactly,
times composite Gauss-Legendre panels in the t = r^2 variable, which
absorbs the area Jacobian).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .integration import gauss_legendre_grid
from .jacobi import JacobiParams, jac_norm_coeff, q_eval
from .symbols import SymbolSpec, eval_at_t

__all__ = ["DiskPoint", "disk_poly", "toeplitz_entry_2d"]


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


def _symbol_breakpoint(a: SymbolSpec) -> Optional[float]:
    # indicator symbols jump at t = s^2; aligning a panel edge there keeps
    # the radial integrand panelwise smooth
    return a.s * a.s if a.kind == "indicator" else None


def toeplitz_entry_2d(
    a: SymbolSpec,
    alpha: float,
    p: int,
    q: int,
    p2: int,
    q2: int,
    radial_panels: int = 256,
    angular_nodes: Optional[int] = None,
) -> complex:
    """Inner product of (radial symbol) * disk_poly(p2, q2) against
    disk_poly(p, q) in the weighted disk space, by tensor quadrature.

    The measure in (t = r^2, theta) coordinates has density
    (alpha+1) (1-t)^alpha dt dtheta / (2 pi).  The uniform angular rule
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
    t_nodes, t_weights = gauss_legendre_grid(radial_panels, _symbol_breakpoint(a))
    thetas = 2.0 * math.pi * np.arange(angular_nodes) / angular_nodes

    r = np.sqrt(t_nodes)
    grid = DiskPoint(r=r[None, :], theta=thetas[:, None])
    integrand = (
        eval_at_t(a, t_nodes)[None, :]
        * disk_poly(p2, q2, alpha, grid)
        * np.conj(disk_poly(p, q, alpha, grid))
        * (1.0 - t_nodes[None, :]) ** alpha
    )
    weighted = integrand * t_weights[None, :]
    # (alpha+1)/(2 pi) * sum_theta (2 pi / M) * sum_t w_t f(t, theta)
    return complex((alpha + 1.0) / angular_nodes * np.sum(weighted))
