"""Pure-state functionals on truncated matrix sequences and separation
drivers.

A finite state is a frequency together with a unit vector of the matching
block dimension and evaluates a sequence as the quadratic form of its
block; the limit state returns the scalar boundary value.  Distinct
finite states are separated by exact matrix-unit combinations at one
frequency, each certified to lie in C*(gamma) by the isolated corner
value of gamma(t^2) - gamma(t)^2 there, and a finite state from the limit
state by a symbol's sequence.  The two documented families of state
pairs that agree on every single generating sequence are refused by
construction (the sequence with identity at one frequency and zeros
elsewhere still tells such a pair apart, see closure_gap_witness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .gammaseq import MatrixSeq, block_order, frequencies, gamma_sequence, pack_blocks
from .integration import entry_block
from .jacobi import check_alpha, dyadic
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
# alpha above this is refused by the corner certificate, whose scan of the
# corners before their decreasing branch holds about alpha / 2 values
CORNER_ALPHA_MAX = 1e5
# each computed corner is within CORNER_REL_ERR of its exact value, relative
# (16 units of 2^-53 bound its 13 roundings, see _corner); the certificate
# asks two corners for a relative gap above CORNER_GAP_MIN
CORNER_REL_ERR = 16 * 2.0 ** -53
CORNER_GAP_MIN = 4 * CORNER_REL_ERR


class NotSeparableError(ValueError):
    """The two states coincide, they agree on every generating sequence
    (documented coincidence families), or the frequency's corner value is
    shared with another frequency within its float error."""


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


def _corner(n: int, alpha: float, eta):
    # c_d(|eta|)^2, the corner of K = gamma(t^2) - gamma(t)^2 at eta (an
    # int or an integer array), d = min(n + eta, n): the squared Jacobi
    # off-diagonal d (d + a)(d + b)(d + a + b) / (s^2 (s^2 - 1)), b = |eta|,
    # s = 2d + a + b, which for either sign of eta is
    # n (n + a) x (x + a) / (s^2 (s - 1)(s + 1)), x = n + eta, s = 2n + a + eta.
    # Each sum adds an exact integer to alpha and is rounded once (s enters
    # twice); with the six products and the division that is 13 roundings
    x, m = n + eta, 2 * n + eta
    s = m + alpha
    return n * (n + alpha) * x * (x + alpha) / (s * s * ((m - 1 + alpha) * (m + 1 + alpha)))


def _tail_start(n: int, alpha: float) -> int:
    """The frequency eta0 from which the corners decrease strictly.

    With x = n + eta, y = x + alpha and s = x + n + alpha, all positive
    and s > 1, the derivative of the log of _corner's closed form in eta
    is 1/x + 1/y - 2/s - 2s/(s^2 - 1), and 2s/(s^2 - 1) - 2/s =
    2/(s (s^2 - 1)) > 0, so it is below 1/x + 1/y - 4/s.  It is
    therefore negative wherever 1/x + 1/y <= 4/s, that is where
    4xy >= s (x + y), or Q(x) = 2x^2 + (alpha - 2n) x - alpha (n + alpha)
    >= 0.  Q is an upward parabola: at an x past its vertex (2n - alpha)/4
    with Q(x) >= 0, Q stays nonnegative for every larger x.  So from the
    first integer x0 >= 1 with both, the corners decrease strictly.  x0
    is started from the larger root (2n - alpha + sqrt(9 alpha^2 + 4 alpha n
    + 4 n^2)) / 4 in floats and both conditions are tested in integers
    (alpha = a / 2^e makes 4^e Q(x) and the vertex test times 2^e
    integers), so no rounding can place it too early; eta0 = x0 - n is
    at most about alpha / 2."""
    a, e = dyadic(alpha)
    q = 1 << e
    root = (2 * n - alpha + math.sqrt(9.0 * alpha * alpha + 4.0 * alpha * n + 4.0 * n * n)) / 4.0
    x = max(1, math.floor(root) - 1)
    while not (4 * x * q >= 2 * n * q - a
               and 2 * x * x * q * q + (a - 2 * n * q) * q * x - a * (n * q + a) >= 0):
        x += 1
    return x - n


@lru_cache(maxsize=512)
def _corner_certificate(n: int, alpha: float, xi: int) -> Tuple[float, float]:
    """(corner, gap) at frequency xi: the corner c_d(|xi|)^2 of
    K = gamma(t^2) - gamma(t)^2, whose block at every frequency eta is
    c_d(|eta|)^2 E_(d-1,d-1), and its smallest relative distance to the
    corner of any other frequency eta >= -n+1, none left out.  A corner
    no other frequency shares is an isolated point of the spectrum of
    the positive compact K, so the spectral projection P there
    (E_(d-1,d-1) at xi, zero elsewhere) and the units
    phi_p(gamma(t)) P phi_q(gamma(t))* at xi lie in C*(gamma) (phi the
    recurrence of gamma(t) run backwards; continuous functional calculus,
    Arveson, An Invitation to C*-Algebras, ch. 1).

    The corners before _tail_start's eta0 are computed one by one; past
    it they decrease strictly, so only xi's neighbours there count, or,
    for a xi before it, the two values around xi's corner, found by
    doubling steps and bisection.  Each computed corner is within
    CORNER_REL_ERR of its exact value, so a relative gap above twice that
    orders the exact values; CORNER_GAP_MIN asks for twice as much again.
    Time and memory are O(alpha + n + log xi).  Raises ValueError for
    alpha above CORNER_ALPHA_MAX, and NotSeparableError, naming both
    frequencies, for a gap at or below CORNER_GAP_MIN."""
    if not alpha <= CORNER_ALPHA_MAX:
        raise ValueError(f"alpha {alpha} exceeds {CORNER_ALPHA_MAX:g}, the largest weight "
                         "exponent the corner certificate of separate serves")
    eta0, corner = _tail_start(n, alpha), _corner(n, alpha, xi)
    if xi >= eta0:
        tail = [xi + 1] + ([xi - 1] if xi > eta0 else [])
    else:
        # widen hi until its corner is at or below xi's, then bisect on lo's above it
        lo, hi = eta0 - 1, eta0
        while _corner(n, alpha, hi) > corner:
            lo, hi = hi, 2 * hi - eta0 + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _corner(n, alpha, mid) > corner else (lo, mid)
        tail = [hi] + ([hi - 1] if hi > eta0 else [])
    head = np.arange(-n + 1, eta0)
    etas = np.concatenate((head[head != xi], tail))
    gaps = np.abs(_corner(n, alpha, etas) - corner) / corner
    at = int(gaps.argmin())
    if not gaps[at] > CORNER_GAP_MIN:
        raise NotSeparableError(
            f"the corners of gamma(t^2) - gamma(t)^2 at frequencies {xi} and {etas[at]} "
            f"are {gaps[at]:.1e} apart, relative, within their float error")
    return corner, float(gaps[at])


@lru_cache(maxsize=512)
def _unit_witness(n: int, alpha: float, xi: int, p: int, q: int) -> tuple:
    """(certificate, witnesses, skew block) of the unit E_{p,q} at xi,
    built once per key and shared as-is: _corner_certificate(n, alpha,
    xi), whose refusal comes first; the witnesses up to max(xi, 0), each
    zero at every other frequency and at infinity, (E_pp,) for p == q and
    (E_pq + E_qp, i (E_pq - E_qp)) for p != q, the last complex; and the
    skew witness's block at xi (None for p == q)."""
    cert = _corner_certificate(n, alpha, xi)
    stack = np.zeros((max(xi, 0) + n, n, n))
    stack[xi + n - 1, p, q] = stack[xi + n - 1, q, p] = 1.0
    witnesses = (MatrixSeq(n, alpha, stack, 0.0),)
    if p != q:
        skew = np.zeros(stack.shape, complex)
        skew[xi + n - 1, p, q], skew[xi + n - 1, q, p] = 1j, -1j
        witnesses += (MatrixSeq(n, alpha, skew, 0.0),)
    return cert, witnesses, witnesses[-1].block(xi) if p != q else None


def separation(
    s1: PureState,
    s2: PureState,
    n: int,
    alpha: float,
    infinity_witness: Optional[SymbolSpec] = None,
) -> Tuple[MatrixSeq, Tuple[float, float], dict]:
    """Produce a witness sequence on which the two states differ, with the
    pair of state values and the recipe the witness was built from:
    {"symbol": a} for the sequence of symbol a, or {"unit": {"xi", "p",
    "q", "combination", "corner", "gap"}} for a matrix-unit combination
    at frequency xi, zero at every other frequency and at infinity: E_pp,
    or for p != q (the only case with a "combination") E_pq + E_qp
    ("sym") or i (E_pq - E_qp) ("skew"); "corner" and "gap" are the
    certificate of _corner_certificate that puts it in C*(gamma).

    Same-frequency pairs take the unit at the first (p, q), p <= q,
    maximising |u_p conj(u_q) - v_p conj(v_q)|, and are identical when
    that is within PROPORTIONAL_TOL (off-diagonal units are evaluated
    through their Hermitian and skew-Hermitian combinations, whichever
    has the larger gap); a limit state is told apart from a finite state by the
    first of indicator_symbol(0.5) (blocks decaying like 4^-xi, refused
    past the moment guard) and 1 - t (blocks I - J_xi, positive definite)
    whose gap exceeds MIN_GAP, or by infinity_witness alone, whose
    refusal propagates; each sequence is cached per (symbol, n, alpha,
    xi_max).  Distinct finite frequencies take E_pp at the higher
    frequency, p the largest entry of its vector, which is zero at the
    lower one.  Raises ValueError for an alpha that is not a finite
    number above -1, for a vector whose dimension is not its frequency's
    block order and for an infinity_witness given to two finite states
    (the CLI's --symbol), before any cache is read, and for a finite pair
    at an alpha above CORNER_ALPHA_MAX; NotSeparableError for equal
    states, for the documented coincidence families and where the
    certificate finds a frequency's corner shared.
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
            xi, p = hi.xi, int(abs(hi.u).argmax())
            q = p
        (corner, cert_gap), witnesses, skew = _unit_witness(n, float(alpha), xi, p, q)
        # eval_state's values, real part, on the exact units: conj(u_p) u_q
        # for E_pp (0.0 at the other frequency of a cross pair) and twice
        # its real part for the sym unit, in np.vdot's arithmetic on these
        # blocks bit for bit; the skew unit's as eval_state's quadratic form
        u1, u2 = s1.u, s2.u
        if p == q:
            z1 = complex(u1[p]) if s1.xi == xi else 0j
            z2 = complex(u2[p]) if s2.xi == xi else 0j
            k, vals = 0, ((z1.conjugate() * z1).real, (z2.conjugate() * z2).real)
            unit = {"xi": xi, "p": p, "q": q, "corner": corner, "gap": cert_gap}
        else:
            vals = (2.0 * (complex(u1[p]).conjugate() * complex(u1[q])).real,
                    2.0 * (complex(u2[p]).conjugate() * complex(u2[q])).real)
            skw = (complex(np.vdot(u1, skew.dot(u1))).real,
                   complex(np.vdot(u2, skew.dot(u2))).real)
            k = 0
            if abs(skw[0] - skw[1]) > abs(vals[0] - vals[1]):  # sym on a tie
                k, vals = 1, skw
            unit = {"xi": xi, "p": p, "q": q, "combination": ("sym", "skew")[k],
                    "corner": corner, "gap": cert_gap}
        recipe, witness = {"unit": unit}, witnesses[k]
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
