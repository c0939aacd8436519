"""Frequency-indexed matrix sequences of radial-symbol Toeplitz data.

For a symbol a, frequency xi >= -n+1 carries a square block of order
min(n+xi, n) whose entries are the symbol-weighted Jacobi inner products.
A truncated sequence holds the blocks from -n+1 up to a chosen maximal
frequency together with the scalar boundary limit of the symbol.
Sequences support pointwise (per-frequency) addition, scalar
multiplication and block products, which is all the generator algebra
downstream needs.
"""

from __future__ import annotations

import io
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .integration import entry_block, entry_blocks
from .symbols import (SymbolSpec, _scalar_from_json, _scalar_to_json, symbol_from_json_obj,
                      symbol_to_json_obj)

__all__ = [
    "block_order",
    "frequencies",
    "gamma_matrix",
    "gamma_sequence",
    "MatrixSeq",
    "pack_blocks",
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


def pack_blocks(n: int, blocks) -> np.ndarray:
    """Stack the blocks of frequencies -n+1, -n+2, ... (given in that
    order) as one read-only (len, n, n) array, each block padded with
    zeros to order n.  Refuses a block of the wrong order."""
    blocks = list(blocks)
    dtype = complex if any(np.iscomplexobj(b) for b in blocks) else float
    stack = np.zeros((len(blocks), n, n), dtype=dtype)
    for i, b in enumerate(blocks):
        d = block_order(n, i - n + 1)
        if np.shape(b) != (d, d):
            raise ValueError(
                f"block at frequency {i - n + 1} must have order {d}, got {np.shape(b)}"
            )
        stack[i, :d, :d] = b
    stack.flags.writeable = False
    return stack


@dataclass(frozen=True, eq=False)
class MatrixSeq:
    """Truncated matrix sequence: blocks for every admissible frequency up
    to xi_max, plus the scalar limit at infinity, which is refused as None.

    Immutable, so a cached sequence is shared as-is (dataclasses.replace
    makes a changed copy).  blocks is one read-only (xi_max + n, n, n)
    stack (see pack_blocks); block(xi) is the unpadded view.  Zero padding
    commutes with sums, scalar multiples and products, so each is one
    numpy call that gives a new sequence.  Real products equal the
    per-block products bit for bit; complex ones may differ by an ulp at
    negative frequencies, where the padded product rounds at order n (no
    package path multiplies complex sequences).  Equality is identity:
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

    def sup_block_norm(self) -> float:
        return float(spectral_norm(self.blocks).max())

    def _pointwise(self, other: "MatrixSeq", block_op, limit_op) -> "MatrixSeq":
        if (self.n, self.alpha, self.xi_max) != (other.n, other.alpha, other.xi_max):
            raise ValueError("sequences must share n, alpha and truncation")
        return MatrixSeq(self.n, self.alpha, block_op(self.blocks, other.blocks),
                         limit_op(self.scalar_limit, other.scalar_limit))

    def __add__(self, other: "MatrixSeq") -> "MatrixSeq":
        return self._pointwise(other, operator.add, operator.add)

    def __matmul__(self, other: "MatrixSeq") -> "MatrixSeq":
        return self._pointwise(other, operator.matmul, operator.mul)

    def __mul__(self, c) -> "MatrixSeq":
        return MatrixSeq(self.n, self.alpha, c * self.blocks, c * self.scalar_limit)

    __rmul__ = __mul__


def gamma_sequence(a: SymbolSpec, n: int, alpha: float, xi_max: int) -> MatrixSeq:
    """All blocks for frequencies -n+1 ... xi_max, from one entry_blocks
    call over 0 ... max(xi_max, n - 1) at order n: the block at xi < 0 is
    the leading submatrix of order n + xi of the block at -xi.  The scalar
    limit is taken from the symbol, never estimated."""
    xis = frequencies(n, xi_max)
    stack = entry_blocks(a, alpha, range(max(xi_max, n - 1) + 1), block_order(n, 0))
    blocks = pack_blocks(n, (stack[abs(xi), :n + min(xi, 0), :n + min(xi, 0)] for xi in xis))
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


def _rows_to_matrix(rows):
    return np.array([[_scalar_from_json(v) for v in row] for row in rows])


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


def seq_from_json_obj(obj: dict) -> MatrixSeq:
    sym, lim = obj.get("symbol"), obj.get("scalar_limit")
    n = int(obj["n"])
    if [int(m["xi"]) for m in obj["matrices"]] != list(frequencies(n, int(obj["xi_max"]))):
        raise ValueError(f"matrices must list frequencies {-n + 1}..{obj['xi_max']} in order")
    return MatrixSeq(
        n=n,
        alpha=float(obj["alpha"]),
        blocks=pack_blocks(n, (_rows_to_matrix(m["rows"]) for m in obj["matrices"])),
        scalar_limit=lim if lim is None else _scalar_from_json(lim),
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
