"""Frequency-indexed matrix sequences of radial-symbol Toeplitz data.

For a symbol a, frequency xi >= -n+1 carries a square block of order
min(n+xi, n) whose entries are the symbol-weighted Jacobi inner products.
A truncated sequence holds the blocks from -n+1 up to a chosen maximal
frequency together with the scalar boundary limit of the symbol when that
limit is known.  Sequences support pointwise (per-frequency) addition,
scalar multiplication and block products, which is all the generator
algebra downstream needs.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .integration import entry_block
from .symbols import SymbolSpec, boundary_limit, symbol_from_json_obj, symbol_to_json_obj

__all__ = [
    "block_order",
    "frequencies",
    "gamma_matrix",
    "gamma_sequence",
    "MatrixSeq",
    "negative_submatrix_check",
    "tail_deviation",
    "spectral_norm",
    "seq_to_json_obj",
    "seq_from_json_obj",
    "block_csv",
]


def block_order(n: int, xi: int) -> int:
    """Order of the block at frequency xi: min(n+xi, n)."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if xi < -n + 1:
        raise IndexError(f"frequency {xi} below the admissible minimum {-n + 1}")
    return min(n + xi, n)


def frequencies(n: int, xi_max: int) -> range:
    """Admissible frequencies -n+1 ... xi_max."""
    if xi_max < 0:
        raise ValueError(f"xi_max must be nonnegative, got {xi_max}")
    return range(-n + 1, xi_max + 1)


def gamma_matrix(a: SymbolSpec, n: int, alpha: float, xi: int) -> np.ndarray:
    """Dense block at frequency xi; symmetric by construction and real
    whenever the symbol is real."""
    return entry_block(a, alpha, xi, block_order(n, xi))


@dataclass
class MatrixSeq:
    """Truncated matrix sequence: blocks for every admissible frequency up
    to xi_max, plus the scalar limit at infinity when defined."""

    n: int
    alpha: float
    blocks: dict = field(repr=False)
    scalar_limit: Optional[complex] = None
    symbol: Optional[SymbolSpec] = None

    def __post_init__(self) -> None:
        keys = sorted(self.blocks)
        expected = list(frequencies(self.n, max(keys)))
        if keys != expected:
            raise ValueError(
                f"blocks must cover every frequency {expected[0]}..{expected[-1]}"
            )
        for xi in keys:
            d = block_order(self.n, xi)
            if self.blocks[xi].shape != (d, d):
                raise ValueError(
                    f"block at frequency {xi} must have order {d}, "
                    f"got shape {self.blocks[xi].shape}"
                )

    @property
    def xi_min(self) -> int:
        return -self.n + 1

    @property
    def xi_max(self) -> int:
        return max(self.blocks)

    def block(self, xi: int) -> np.ndarray:
        if xi not in self.blocks:
            raise IndexError(
                f"frequency {xi} outside the computed range "
                f"[{self.xi_min}, {self.xi_max}]"
            )
        return self.blocks[xi]

    def sup_block_norm(self) -> float:
        return max(spectral_norm(m) for m in self.blocks.values())

    def _check_compatible(self, other: "MatrixSeq") -> None:
        if self.n != other.n or self.xi_max != other.xi_max:
            raise ValueError("sequences must share n and truncation")

    def __add__(self, other: "MatrixSeq") -> "MatrixSeq":
        self._check_compatible(other)
        lim = None
        if self.scalar_limit is not None and other.scalar_limit is not None:
            lim = self.scalar_limit + other.scalar_limit
        return MatrixSeq(
            n=self.n,
            alpha=self.alpha,
            blocks={xi: self.blocks[xi] + other.blocks[xi] for xi in self.blocks},
            scalar_limit=lim,
        )

    def __mul__(self, c) -> "MatrixSeq":
        lim = None if self.scalar_limit is None else c * self.scalar_limit
        return MatrixSeq(
            n=self.n,
            alpha=self.alpha,
            blocks={xi: c * b for xi, b in self.blocks.items()},
            scalar_limit=lim,
        )

    __rmul__ = __mul__

    def __matmul__(self, other: "MatrixSeq") -> "MatrixSeq":
        self._check_compatible(other)
        lim = None
        if self.scalar_limit is not None and other.scalar_limit is not None:
            lim = self.scalar_limit * other.scalar_limit
        return MatrixSeq(
            n=self.n,
            alpha=self.alpha,
            blocks={xi: self.blocks[xi] @ other.blocks[xi] for xi in self.blocks},
            scalar_limit=lim,
        )


def gamma_sequence(a: SymbolSpec, n: int, alpha: float, xi_max: int) -> MatrixSeq:
    """All blocks for frequencies -n+1 ... xi_max; the scalar limit is
    taken from the symbol, never estimated."""
    blocks = {xi: gamma_matrix(a, n, alpha, xi) for xi in frequencies(n, xi_max)}
    return MatrixSeq(
        n=n, alpha=alpha, blocks=blocks, scalar_limit=boundary_limit(a), symbol=a
    )


def negative_submatrix_check(seq: MatrixSeq, xi: int, tol: float = 1e-12) -> bool:
    """True iff the block at a negative frequency equals the leading
    principal submatrix of the block at the mirrored positive frequency."""
    if not (-seq.n + 1 <= xi <= -1):
        raise ValueError(f"frequency must lie in [{-seq.n + 1}, -1], got {xi}")
    if -xi > seq.xi_max:
        raise IndexError(
            f"mirrored frequency {-xi} exceeds the truncation {seq.xi_max}; "
            "recompute with a larger xi_max"
        )
    neg = seq.block(xi)
    d = neg.shape[0]
    top = seq.block(-xi)[:d, :d]
    return bool(np.max(np.abs(neg - top)) <= tol)


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value of a block (its operator 2-norm); 0 for an
    empty block."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def tail_deviation(seq: MatrixSeq, xi: int) -> float:
    """Spectral-norm distance of the block at xi from (scalar limit) * I."""
    if seq.scalar_limit is None:
        raise ValueError("tail deviation needs a sequence with a scalar limit")
    if xi < 0:
        raise ValueError(f"tail deviation is defined for xi >= 0, got {xi}")
    b = seq.block(xi)
    return spectral_norm(b - seq.scalar_limit * np.eye(b.shape[0]))


def _matrix_to_rows(m: np.ndarray):
    if np.iscomplexobj(m):
        return [[[float(v.real), float(v.imag)] for v in row] for row in m]
    return [[float(v) for v in row] for row in m]


def _rows_to_matrix(rows):
    def scal(v):
        return complex(v[0], v[1]) if isinstance(v, list) else float(v)

    arr = np.array([[scal(v) for v in row] for row in rows])
    return arr


def seq_to_json_obj(seq: MatrixSeq) -> dict:
    lim = seq.scalar_limit
    if lim is not None:
        lim = complex(lim)
        lim = lim.real if lim.imag == 0.0 else [lim.real, lim.imag]
    return {
        "n": seq.n,
        "alpha": seq.alpha,
        "xi_min": seq.xi_min,
        "xi_max": seq.xi_max,
        "symbol": None if seq.symbol is None else symbol_to_json_obj(seq.symbol),
        "matrices": [
            {"xi": xi, "rows": _matrix_to_rows(seq.blocks[xi])}
            for xi in sorted(seq.blocks)
        ],
        "scalar_limit": lim,
    }


def seq_from_json_obj(obj: dict) -> MatrixSeq:
    lim = obj.get("scalar_limit")
    if isinstance(lim, list):
        lim = complex(lim[0], lim[1])
    sym = obj.get("symbol")
    return MatrixSeq(
        n=int(obj["n"]),
        alpha=float(obj["alpha"]),
        blocks={int(m["xi"]): _rows_to_matrix(m["rows"]) for m in obj["matrices"]},
        scalar_limit=lim,
        symbol=None if sym is None else symbol_from_json_obj(sym, alpha=obj["alpha"]),
    )


def block_csv(seq: MatrixSeq, xi: int) -> str:
    """CSV dump of a single block, header j,k,value."""
    b = seq.block(xi)
    buf = io.StringIO()
    buf.write("j,k,value\n")
    for j in range(b.shape[0]):
        for k in range(b.shape[1]):
            v = b[j, k]
            if np.iscomplexobj(b):
                buf.write(f"{j},{k},{complex(v)!r}\n".replace(" ", ""))
            else:
                buf.write(f"{j},{k},{float(v)!r}\n")
    return buf.getvalue()
