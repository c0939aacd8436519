"""Pure-state functionals on truncated matrix sequences and separation
drivers.

A finite state is a frequency together with a unit vector of the matching
block dimension and evaluates a sequence as the quadratic form of its
block; the limit state returns the scalar boundary value.  Distinct
states are separated by explicit witnesses assembled from the
generating-symbol sequences, except on the two documented families of
state pairs that agree on every single generating sequence, where
separation is refused by construction (the sequence with identity at one
frequency and zeros elsewhere still tells such a pair apart, see
closure_gap_witness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .gammaseq import MatrixSeq, block_order, frequencies, gamma_sequence, pack_blocks
from .generators import same_frequency_plan
from .integration import entry_block
from .jacobi import check_alpha
from .symbols import SymbolSpec, indicator_symbol, poly_t_symbol

__all__ = [
    "PureState",
    "finite_state",
    "limit_state",
    "eval_state",
    "eval_state_integral",
    "NotSeparableError",
    "separation",
    "separate",
    "coincidence_pair",
    "closure_gap_witness",
]

UNIT_NORM_TOL = 1e-12
PROPORTIONAL_TOL = 1e-10
MIN_GAP = 1e-8


class NotSeparableError(ValueError):
    """The two states coincide, or they agree on every generating
    sequence (documented coincidence families)."""


@dataclass(eq=False)
class PureState:
    """Either a finite state (frequency, unit vector) or the limit state
    (xi is None, u is None).  Equality is identity: s == t holds only
    when s is t."""

    xi: Optional[int]
    u: Optional[np.ndarray]

    @property
    def is_limit(self) -> bool:
        return self.xi is None


def finite_state(xi: int, u) -> PureState:
    vec = np.asarray(u, dtype=complex)
    if vec.ndim != 1:
        raise ValueError("state vector must be one-dimensional")
    if not np.isfinite(vec).all():
        raise ValueError(f"state vector must be finite, got {vec}")
    if abs(np.linalg.norm(vec) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"state vector must be unit norm, got {np.linalg.norm(vec)}")
    return PureState(xi=int(xi), u=vec)


def limit_state() -> PureState:
    return PureState(xi=None, u=None)


def _state_gap(u: np.ndarray, v: np.ndarray) -> Tuple[float, int, int]:
    # max |D| for D = uu* - vv*, zero exactly when v is a unimodular multiple
    # of u, and the first (p, q), p <= q, attaining it, in one scalar pass:
    # a scalar complex product makes D_qp the exact conjugate of D_pq, so
    # the upper triangle holds every magnitude
    u, v = u.tolist(), v.tolist()
    best, at = -1.0, (0, 0)
    for p, (up, vp) in enumerate(zip(u, v)):
        for q in range(p, len(u)):
            gap = abs(up * u[q].conjugate() - vp * v[q].conjugate())
            if gap > best:
                best, at = gap, (p, q)
    return best, at[0], at[1]


def _proportional(u: np.ndarray, v: np.ndarray) -> bool:
    # |D_00| = ||u_0|^2 - |v_0|^2| <= max |D|: a pair it puts past twice the
    # tolerance, far beyond any rounding of D, is refused without forming D
    return (u.shape == v.shape
            and abs(abs(u[0]) ** 2 - abs(v[0]) ** 2) <= 2.0 * PROPORTIONAL_TOL
            and _state_gap(u, v)[0] <= PROPORTIONAL_TOL)


def eval_state(s: PureState, a_seq: MatrixSeq):
    """Value of the state on a sequence: quadratic form of the block, or
    the scalar limit for the limit state."""
    if s.xi is None:
        return a_seq.scalar_limit
    b, u = a_seq.block(s.xi), s.u
    if len(b) != len(u):
        raise ValueError(
            f"state vector has dimension {len(u)}, block has order {len(b)}"
        )
    val = complex(np.vdot(u, b.dot(u)))
    return val.real if abs(val.imag) < 1e-14 * max(1.0, abs(val)) else val


def eval_state_integral(
    xi: int, u, a: SymbolSpec, n: int, alpha: float
):
    """State value straight from entry integrals, bypassing any stored
    sequence: sum over (j, k) of conj(u_j) u_k times the entry integral.
    Must agree with eval_state on the assembled sequence."""
    vec = np.asarray(u, dtype=complex)
    d = block_order(n, xi)
    if vec.shape != (d,):
        raise ValueError(f"vector must have dimension {d}, got {vec.shape}")
    # one entry_block call of its own, summed term by term rather than
    # through eval_state's vdot, so that the two evaluations stay apart
    entries = entry_block(a, alpha, xi, d)
    acc = 0.0 + 0.0j
    for j in range(d):
        for k in range(d):
            acc += np.conj(vec[j]) * vec[k] * entries[j, k]
    return acc.real if abs(acc.imag) < 1e-14 * max(1.0, abs(acc)) else acc


def _coincidence_vector(n: int, alpha: float) -> np.ndarray:
    u = np.zeros(n)
    u[0] = math.sqrt((alpha + 3.0) / (2.0 * (alpha + 2.0)))
    u[1] = math.sqrt((alpha + 1.0) / (2.0 * (alpha + 2.0)))
    return u


def coincidence_pair(n: int, alpha: float) -> Tuple[PureState, PureState]:
    """The documented pair of distinct states that agree on every
    generating sequence: frequency 0 with the two-component vector built
    from alpha, against frequency 2 with the first basis vector."""
    if n < 2:
        raise ValueError("the coincidence construction needs n >= 2")
    return finite_state(0, _coincidence_vector(n, alpha)), finite_state(2, np.eye(n)[0])


def _e0_like(u: np.ndarray) -> bool:
    e0 = np.zeros(len(u))
    e0[0] = 1.0
    return _proportional(u, e0)


def _documented_coincidence(lo: PureState, hi: PureState, n: int, alpha: float) -> Optional[str]:
    # the documented family of finite states at frequencies (-eta, eta) or
    # (0, 2), named, or None
    if hi.xi == -lo.xi:
        if _e0_like(lo.u) and _e0_like(hi.u):
            return f"the documented ({lo.xi}, {hi.xi}) pair of first basis vectors"
    elif n >= 2 and _e0_like(hi.u) and _proportional(lo.u, _coincidence_vector(n, alpha)):
        return ("the documented (0, 2) pair (the alpha-vector at frequency 0, "
                "the first basis vector at frequency 2)")
    return None


_LIMIT_WITNESSES = (indicator_symbol(0.5), poly_t_symbol([1.0, -1.0]))  # tried in this order


@lru_cache(maxsize=512)
def _symbol_witness(a: SymbolSpec, n: int, alpha: float, xi_max: int) -> MatrixSeq:
    return gamma_sequence(a, n, alpha, xi_max)  # a limit-state witness, shared as-is


@lru_cache(maxsize=512)
def _unit_witness(n: int, alpha: float, xi: int, p: int, q: int) -> tuple:
    """(plans, witnesses, complex blocks) of the same-frequency unit
    E_{p,q} at xi, built once per key and shared as-is.  For p == q: the
    plan and its evaluation A at max(xi, 0); for p != q also the mirror
    plan (q, p), with evaluation B, and the witnesses A + B and i (A - B).
    Each witness's stack is cast to complex once, and its blocks held as
    read-only views, frequency -n+1 first; a block that one any() over
    the stack finds zero is held as None (a state on it has value 0.0)."""
    plan = same_frequency_plan(n, alpha, xi, p, q)
    a = plan.evaluate(max(xi, 0))
    plans, witnesses = (plan,), (a,)
    if p != q:
        plans += (same_frequency_plan(n, alpha, xi, q, p),)
        b = plans[1].evaluate(max(xi, 0))
        witnesses = (a + b, 1j * (a + (-1.0) * b))
    blocks = []
    for w in witnesses:
        z = np.asarray(w.blocks, dtype=complex)
        z.flags.writeable = False
        nonzero = z.any(axis=(1, 2)).tolist()
        blocks.append(tuple(z[i, :n + min(eta, 0), :n + min(eta, 0)] if nonzero[i] else None
                            for i, eta in enumerate(frequencies(n, w.xi_max))))
    return plans, witnesses, tuple(blocks)


def separation(
    s1: PureState,
    s2: PureState,
    n: int,
    alpha: float,
    infinity_witness: Optional[SymbolSpec] = None,
) -> Tuple[MatrixSeq, Tuple[float, float], dict]:
    """Produce a witness sequence on which the two states differ, with the
    pair of state values and the recipe the witness was built from:
    {"symbol": a} for the sequence of symbol a, {"plan": P} for the
    evaluation of plan P, or {"plans": (P, Q), "combination": c} for the
    evaluations A of P and B of Q combined as A + B (c = "sym") or
    i (A - B) (c = "skew").

    Same-frequency pairs go through the matrix-unit plans at the first
    (p, q), p <= q, maximising |u_p conj(u_q) - v_p conj(v_q)|, and are
    identical when that is within PROPORTIONAL_TOL (off-diagonal units are
    evaluated through their Hermitian and skew-Hermitian combinations,
    whichever has the larger gap); a limit state is told apart from a finite state by the
    first of indicator_symbol(0.5) (blocks decaying like 4^-xi, refused
    past the moment guard) and 1 - t (blocks I - J_xi, positive definite)
    whose gap exceeds MIN_GAP, or by infinity_witness alone, whose
    refusal propagates; each sequence is cached per (symbol, n, alpha,
    xi_max).  Distinct finite frequencies use the same-frequency plan for
    E_pp at the higher frequency, whose block at the lower frequency
    vanishes.  Raises ValueError for an alpha that is not a finite number
    above -1, for a vector whose dimension is not its frequency's block
    order and for an infinity_witness given to two finite states (the
    CLI's --symbol), before any cache is read; NotSeparableError for
    equal states and for the documented coincidence families.
    """
    check_alpha(alpha)
    for s in (s1, s2):
        # a unit vector is never empty, so a frequency below -n+1 or an
        # n < 1 lands here too, and block_order raises its own error
        if s.xi is not None and len(s.u) != min(n + s.xi, n):
            raise ValueError(
                f"state vector has dimension {len(s.u)}, block has order {block_order(n, s.xi)}"
            )
    if infinity_witness is not None and s1.xi is not None and s2.xi is not None:
        raise ValueError("--symbol is the witness of a limit-state pair; neither state is inf")

    if s1.xi is None or s2.xi is None:
        if s1.xi == s2.xi:
            raise NotSeparableError("identical pure states")
        fin = s2 if s1.xi is None else s1
        candidates = _LIMIT_WITNESSES if infinity_witness is None else (infinity_witness,)
        for a in candidates:
            try:
                witness = _symbol_witness(a, n, float(alpha), max(fin.xi, 0))
            except ValueError:
                if a is candidates[-1]:  # only the last one's refusal is the answer
                    raise
                continue
            vals = (eval_state(s1, witness), eval_state(s2, witness))
            if abs(vals[0] - vals[1]) > MIN_GAP:
                break
        recipe = {"symbol": witness.symbol}
    else:
        if s1.xi == s2.xi:
            # one D = uu* - vv* decides both: the same state, or the unit
            gap, p, q = _state_gap(s1.u, s2.u)
            if gap <= PROPORTIONAL_TOL:
                raise NotSeparableError("identical pure states")
            xi = s1.xi
        else:
            lo, hi = (s1, s2) if s1.xi < s2.xi else (s2, s1)
            if hi.xi == -lo.xi or (lo.xi == 0 and hi.xi == 2):
                family = _documented_coincidence(lo, hi, n, alpha)
                if family:
                    raise NotSeparableError(f"{family} agrees on every generating sequence")
            # the plan for E_pp at the higher frequency, whatever the
            # lower one is: its squared middle factor vanishes at the
            # lower frequency, whose block order puts the factor's
            # structural index past the last antidiagonal
            xi, p = hi.xi, int(abs(hi.u).argmax())
            q = p
        plans, witnesses, blocks = _unit_witness(n, float(alpha), xi, p, q)
        # eval_state's quadratic forms, real part, on the witnesses' blocks,
        # whose orders the dimension check above has matched; a block the
        # record marks as zero (the lower frequency of a cross pair) has
        # value 0.0
        u1, u2, x1, x2 = s1.u, s2.u, s1.xi + n - 1, s2.xi + n - 1
        b1, b2 = blocks[0][x1], blocks[0][x2]
        k, vals = 0, (0.0 if b1 is None else complex(np.vdot(u1, b1.dot(u1))).real,
                      0.0 if b2 is None else complex(np.vdot(u2, b2.dot(u2))).real)
        recipe = {"plan": plans[0]}
        if p != q:
            b1, b2 = blocks[1][x1], blocks[1][x2]
            skew = (0.0 if b1 is None else complex(np.vdot(u1, b1.dot(u1))).real,
                    0.0 if b2 is None else complex(np.vdot(u2, b2.dot(u2))).real)
            if abs(skew[0] - skew[1]) > abs(vals[0] - vals[1]):  # sym on a tie
                k, vals = 1, skew
            recipe = {"plans": plans, "combination": ("sym", "skew")[k]}
        witness = witnesses[k]
    if abs(vals[0] - vals[1]) <= MIN_GAP:
        raise NotSeparableError(
            f"constructed witness produced values {vals[0]} and {vals[1]} "
            f"closer than {MIN_GAP}"
        )
    return witness, vals, recipe


def separate(s1: PureState, s2: PureState, n: int, alpha: float,
             infinity_witness: Optional[SymbolSpec] = None) -> Tuple[MatrixSeq, Tuple[float, float]]:
    """The witness sequence and the pair of state values of separation."""
    witness, vals, _ = separation(s1, s2, n, alpha, infinity_witness)
    return witness, vals


def closure_gap_witness(n: int, alpha: float, xi_max: int) -> MatrixSeq:
    """The sequence with identity at frequency 2 and zero blocks
    elsewhere, scalar limit zero.  It belongs to the limit algebra and
    separates the documented coincidence pair (values 0 and 1), although
    no single generating sequence can."""
    if n < 2:
        raise ValueError("the witness construction needs n >= 2")
    if xi_max < 2:
        raise ValueError(f"xi_max must be at least 2, got {xi_max}")
    blocks = pack_blocks(
        n,
        (np.eye(n) if xi == 2 else np.zeros((block_order(n, xi),) * 2)
         for xi in frequencies(n, xi_max)),
    )
    return MatrixSeq(n=n, alpha=alpha, blocks=blocks, scalar_limit=0.0)
