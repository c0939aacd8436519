"""Antitriangular structure tests, matrix units from structured generators,
and symbolic separation plans.

A square matrix is "p-antitriangular" when every entry strictly above the
p-th antidiagonal (j + k < p) vanishes and every entry on that
antidiagonal (j + k = p) does not.  A family G_0, ..., G_{d-1} in which
G_q is (d-1+q)-antitriangular supports an explicit recursion producing
coefficients nu[p][j] such that products of the G's reassemble every
matrix unit E_{p,q}; `basis` runs it on generator_family.  A
SeparationPlan is a hand-written product of generating-symbol sequences,
evaluable at any truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Optional, Sequence, Tuple

import numpy as np

from .gammaseq import MatrixSeq, block_order, frequencies
from .integration import entry_block
from .symbols import make_gp

__all__ = [
    "AntitriangularReport",
    "antitriangular_report",
    "GeneratorStructureError",
    "nu_table",
    "matrix_unit",
    "matrix_unit_errors",
    "SeparationPlan",
    "generator_block",
    "generator_family",
]

# the one structure rule, read by antitriangular_report alone: entries
# below TOL_ZERO vanish, entries above TOL_NONZERO do not, both relative
# to the largest entry of the matrix they lie in
TOL_ZERO = 1e-10
TOL_NONZERO = 1e-8
UNIT_ERROR_MAX = 1e-8  # the reconstruction error `basis` and `verify` accept


@dataclass(frozen=True)
class AntitriangularReport:
    """A fault is the (row, column) of the entry behind below_max or
    anti_min where that side of the rule fails, None where it holds."""

    below_max: float
    anti_min: float
    scale: float
    holds: bool
    below_fault: Optional[Tuple[int, int]]
    anti_fault: Optional[Tuple[int, int]]


def antitriangular_report(m: np.ndarray, p: int) -> AntitriangularReport:
    """Check p-antitriangularity of a nonempty matrix with the tolerances
    TOL_ZERO and TOL_NONZERO relative to the matrix scale (largest entry
    magnitude, or 1 for the zero matrix): each magnitude is divided by the
    scale, so a subnormal scale underflows neither.  The entry behind below_max or
    anti_min is the first of its magnitude in row order, a NaN if any.

    For p beyond the last antidiagonal there are no on-diagonal entries,
    every entry lies above it and the scale is the largest of them: the
    report holds exactly when the whole matrix is exactly zero.
    """
    mags = np.abs(np.asarray(m))
    scale = float(mags.max()) if mags.max() > 0.0 else 1.0
    sums = np.add.outer(*map(np.arange, mags.shape))
    below = np.where(sums < p, mags, 0.0)
    anti = np.where(sums == p, mags, math.inf)
    jb, ja = (np.unravel_index(i, mags.shape) for i in (np.argmax(below), np.argmin(anti)))
    below_max, anti_min = float(below[jb]), float(anti[ja])
    below_fault = None if below_max / scale < TOL_ZERO else tuple(map(int, jb))
    anti_fault = None if anti_min / scale > TOL_NONZERO else tuple(map(int, ja))
    holds = below_fault is None and anti_fault is None
    return AntitriangularReport(below_max, anti_min, scale, holds, below_fault, anti_fault)


class GeneratorStructureError(ValueError):
    """A generator family violates the structural preconditions; the
    message names the failed condition and the offending entry."""


def _check_generator_structure(gs: Sequence[np.ndarray]) -> None:
    d = gs[0].shape[0]
    if len(gs) != d or any(g.shape != (d, d) for g in gs):
        raise GeneratorStructureError(f"need exactly {d} square matrices of order {d}")
    # the last generator, a nonzero multiple of E_(d-1,d-1), is (2d-2)-antitriangular;
    # the last row of generator p, a 1 x d matrix where j + k = k, is p-antitriangular
    for p in (d - 1, *range(d - 1)):
        last = p == d - 1
        rep = antitriangular_report(gs[p] if last else gs[p][d - 1:], 2 * p if last else p)
        who, row = ("last generator: ", 0) if last else (f"generator {p}: row ", d - 1)
        if rep.anti_fault and last:
            raise GeneratorStructureError(f"{who}corner entry ({p},{p}) = {rep.anti_min:.3e} "
                                          "is not a nonzero multiple")
        if rep.anti_fault:
            raise GeneratorStructureError(f"{who}entry ({row},{p}) = {rep.anti_min:.3e} must be nonzero")
        if rep.below_fault:
            j, k = rep.below_fault
            raise GeneratorStructureError(f"{who}entry ({j + row},{k}) = {rep.below_max:.3e} must vanish")


def nu_table(gs: Sequence[np.ndarray]) -> np.ndarray:
    """Upper-triangular coefficients nu[p][j], 0 <= p <= j <= d-1, of the
    descending matrix-unit recursion, of dtype result_type(*gs, float).

    With c = corner entry of the last generator and r_p = last row of
    generator p:
        nu[d-1][d-1] = 1 / c^2
        nu[p][p]     = 1 / (r_p[p] * c)
        nu[p][j]     = -(1 / r_p[p]) * sum_{q=p+1..j} nu[q][j] * r_p[q]
    The rule is scale-free but nu is not: a family whose nu over- or
    underflows to a non-finite value is refused.
    """
    gs = [np.asarray(g) for g in gs]
    _check_generator_structure(gs)
    d = gs[0].shape[0]
    nu = np.zeros((d, d), dtype=np.result_type(*gs, float))
    corner = gs[d - 1][d - 1, d - 1]
    with np.errstate(all="ignore"):  # an overflow is refused below
        nu[d - 1, d - 1] = 1.0 / corner**2
        for p in range(d - 2, -1, -1):
            row = gs[p][d - 1, :]
            nu[p, p] = 1.0 / (row[p] * corner)
            for j in range(p + 1, d):
                nu[p, j] = -sum(nu[q, j] * row[q] for q in range(p + 1, j + 1)) / row[p]
    if not np.isfinite(nu).all():
        p, j = np.argwhere(~np.isfinite(nu))[0]
        raise GeneratorStructureError(f"coefficient nu[{p}][{j}] = {nu[p, j]} is not finite")
    return nu


def _left_factor(gs, nu: np.ndarray, p: int) -> np.ndarray:
    d = len(gs)
    left = sum(np.conj(nu[p, j]) * gs[j].conj().T for j in range(p, d))
    return left @ gs[d - 1].conj().T @ gs[d - 1]


def _right_factor(gs, nu: np.ndarray, q: int) -> np.ndarray:
    return sum(nu[q, k] * gs[k] for k in range(q, len(gs)))


def matrix_unit(gs: Sequence[np.ndarray], p: int, q: int) -> np.ndarray:
    """Reassemble the matrix unit E_{p,q} from the generator family as
    (sum conj(nu[p][j]) G_j^*) G_last^* G_last (sum nu[q][k] G_k), with
    nu = nu_table(gs)."""
    gs = [np.asarray(g) for g in gs]
    nu = nu_table(gs)
    return _left_factor(gs, nu, p) @ _right_factor(gs, nu, q)


def matrix_unit_errors(gs: Sequence[np.ndarray]) -> np.ndarray:
    """Largest entry of |matrix_unit(gs, p, q) - E_pq|, per (p, q), bit
    for bit: nu and each left and right factor are formed once for the
    family."""
    gs = [np.asarray(g) for g in gs]
    nu = nu_table(gs)
    d = len(gs)
    lefts = [_left_factor(gs, nu, p) for p in range(d)]
    rights = [_right_factor(gs, nu, q) for q in range(d)]
    eye = np.eye(d)
    return np.array([[np.max(np.abs(left @ right - np.outer(eye[p], eye[q])))
                      for q, right in enumerate(rights)] for p, left in enumerate(lefts)])


@lru_cache(maxsize=4096, typed=True)  # untyped, True would hit the entry of 1
def generator_block(n: int, alpha: float, xi: int, p: int) -> np.ndarray:
    """Cached block at frequency xi of the sequence for generating symbol
    number p, integrated at order n for xi >= 0; for xi < 0 the leading
    submatrix of the block at -xi.  Read-only: callers must not mutate
    the returned array."""
    d = block_order(n, xi)
    if xi >= 0:
        m = entry_block(make_gp(p, alpha), alpha, xi, d)
    else:
        m = generator_block(n, alpha, -xi, p)[:d, :d].copy()
    m.flags.writeable = False
    return m


def generator_family(n: int, alpha: float, xi: int) -> list:
    """The blocks at xi of the generating symbols d-1+|xi|+j (j < d), the
    family whose units `basis` reconstructs.  The last generator is a
    nonzero multiple of E_{d-1,d-1} at xi and vanishes at every lower
    frequency."""
    d = block_order(n, xi)
    return [generator_block(n, alpha, xi, d - 1 + abs(xi) + j) for j in range(d)]


@dataclass(frozen=True)
class SeparationPlan:
    """Symbolic recipe (sum_j c_j A_{k_j}) * A_mid^2 * (sum_j c'_j A_{k'_j})
    over the generating-symbol sequences A_k, written by hand (no code in
    the package builds one); evaluable at any truncation."""

    n: int
    alpha: float
    left: tuple            # ((coeff, symbol_index), ...)
    middle: int
    right: tuple

    def evaluate(self, xi_max: int) -> MatrixSeq:
        """The plan's sequence up to xi_max, a new one on each call, with
        the plan's scalar limit.  Below eta0 = max(-n+1, m - 2 (n-1)) the
        antidiagonal m - |eta| of the middle generator g_m lies past the
        last one, 2 (d_eta - 1), so its block and the product are zero:
        only eta0 .. xi_max are multiplied, from cached generator blocks,
        the top first, so a block past the moment guard is refused first."""
        n = self.n
        blocks = np.zeros((len(frequencies(n, xi_max)), n, n))

        def limit(k):
            return make_gp(k, self.alpha).limit

        def combine(terms, f):
            return sum(c * f(k) for c, k in terms)

        for eta in range(xi_max, max(-n + 1, self.middle - 2 * (n - 1)) - 1, -1):
            at = partial(generator_block, n, self.alpha, eta)
            left, mid = combine(self.left, at), at(self.middle)
            d = len(mid)
            blocks[eta + n - 1, :d, :d] = left @ mid @ mid @ combine(self.right, at)
        lim = combine(self.left, limit) * limit(self.middle) ** 2 * combine(self.right, limit)
        return MatrixSeq(n=n, alpha=self.alpha, blocks=blocks, scalar_limit=lim)
