"""Frequency-indexed matrix sequences of radial-symbol Toeplitz data.

For a symbol a, frequency xi >= -n+1 carries a square block of order
min(n+xi, n) whose entries are the symbol-weighted Jacobi inner products.
A truncated sequence holds the blocks from -n+1 up to a chosen maximal
frequency together with the scalar boundary limit of the symbol, as one
read-only zero-padded stack.  seq_to_json_obj writes a sequence as
`gamma --out` does; no command reads one back.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .integration import entry_block, entry_blocks
from .jacobi import check_integer
from .symbols import SymbolSpec, _scalar_to_json, symbol_to_json_obj

__all__ = [
    "block_order",
    "frequencies",
    "gamma_matrix",
    "gamma_sequence",
    "MatrixSeq",
    "tail_deviation",
    "spectral_norm",
    "seq_to_json_obj",
    "block_csv",
]


def block_order(n: int, xi: int) -> int:
    """Order of the block at frequency xi: min(n+xi, n); n and xi are read by check_integer."""
    n, xi = check_integer(n, "n"), check_integer(xi, "frequency")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if xi < -n + 1:
        raise IndexError(f"frequency {xi} below the admissible minimum {-n + 1}")
    return min(n + xi, n)


def frequencies(n: int, xi_max: int) -> range:
    """Admissible frequencies -n+1 ... xi_max; n and xi_max are read by check_integer."""
    n, xi_max = check_integer(n, "n"), check_integer(xi_max, "xi_max")
    if xi_max < 0:
        raise ValueError(f"xi_max must be nonnegative, got {xi_max}")
    return range(-n + 1, xi_max + 1)


def gamma_matrix(a: SymbolSpec, n: int, alpha: float, xi: int) -> np.ndarray:
    """Dense block at frequency xi; symmetric by construction and real
    whenever the symbol is real."""
    return entry_block(a, alpha, xi, block_order(n, xi))


@dataclass(frozen=True, eq=False)
class MatrixSeq:
    """Truncated matrix sequence: blocks for every admissible frequency up
    to xi_max, plus the scalar limit at infinity, which is refused as None.

    Immutable, so a cached sequence is shared as-is (dataclasses.replace
    makes a changed copy).  blocks is one read-only (xi_max + n, n, n)
    stack, row xi + n - 1 holding the block at xi padded with zeros to
    order n; block(xi) is the unpadded view.  Equality is identity:
    a == b holds only when a is b.
    """

    n: int
    alpha: float
    blocks: np.ndarray = field(repr=False)
    scalar_limit: complex
    symbol: Optional[SymbolSpec] = None

    def __post_init__(self) -> None:
        if self.scalar_limit is None:
            raise ValueError("a matrix sequence needs its scalar limit")
        shape, n = np.shape(self.blocks), self.n
        if n < 1 or len(shape) != 3 or shape[0] < n or shape[1:] != (n, n):
            raise ValueError(
                f"blocks must be an (xi_max + n, n, n) stack, n = {n}, got {shape}"
            )
        blocks = np.asarray(self.blocks).view()
        blocks.flags.writeable = False
        object.__setattr__(self, "blocks", blocks)

    @property
    def xi_min(self) -> int:
        return -self.n + 1

    @property
    def xi_max(self) -> int:
        return len(self.blocks) - self.n

    def block(self, xi: int) -> np.ndarray:
        n = self.n
        if not -n < xi <= len(self.blocks) - n:
            raise IndexError(
                f"frequency {xi} outside the computed range [{-n + 1}, {len(self.blocks) - n}]"
            )
        # row xi + n - 1, of order min(n + xi, n)
        return self.blocks[xi + n - 1] if xi >= 0 else self.blocks[xi + n - 1, :n + xi, :n + xi]


def gamma_sequence(a: SymbolSpec, n: int, alpha: float, xi_max: int) -> MatrixSeq:
    """All blocks for frequencies -n+1 ... xi_max, from one entry_blocks
    call over 0 ... max(xi_max, n - 1) at order n: the block at xi < 0 is
    the leading submatrix of order n + xi of the block at -xi, so the
    stack is the order-n blocks at |xi|, gathered with one index, with
    the rows and columns past order n + xi zeroed.  The scalar limit is
    taken from the symbol, never estimated.  n is read by check_integer,
    xi_max by frequencies."""
    n = check_integer(n, "n")
    xis = frequencies(n, xi_max)
    xi_max = xis[-1]
    stack = entry_blocks(a, alpha, range(max(xi_max, n - 1) + 1), block_order(n, 0))
    blocks = stack[np.abs(xis)]
    for d in range(1, n):  # the block at xi = d - n, of order d
        blocks[d - 1, d:] = blocks[d - 1, :, d:] = 0
    return MatrixSeq(
        n=n, alpha=alpha, blocks=blocks, scalar_limit=a.limit, symbol=a
    )


def spectral_norm(m: np.ndarray):
    """Largest singular value of a block (its operator 2-norm), as a float;
    0 for an empty block.  For a stack of blocks, such as a MatrixSeq's
    padded blocks (padding adds only zero singular values), the array of
    the norms of its blocks, from one stacked SVD."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    norms = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(norms) if m.ndim == 2 else norms


def tail_deviation(seq: MatrixSeq, xi: int) -> float:
    """Spectral-norm distance of the block at xi from (scalar limit) * I."""
    if xi < 0:
        raise ValueError(f"tail deviation is defined for xi >= 0, got {xi}")
    b = seq.block(xi)
    return spectral_norm(b - seq.scalar_limit * np.eye(b.shape[0]))


def _matrix_to_rows(m: np.ndarray):
    if np.iscomplexobj(m):
        return np.stack((m.real, m.imag), axis=-1).tolist()
    return m.tolist()


def seq_to_json_obj(seq: MatrixSeq) -> dict:
    return {
        "n": seq.n,
        "alpha": seq.alpha,
        "xi_min": seq.xi_min,
        "xi_max": seq.xi_max,
        "symbol": None if seq.symbol is None else symbol_to_json_obj(seq.symbol),
        "matrices": [
            {"xi": xi, "rows": _matrix_to_rows(seq.block(xi))}
            for xi in frequencies(seq.n, seq.xi_max)
        ],
        "scalar_limit": _scalar_to_json(seq.scalar_limit),
    }


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
