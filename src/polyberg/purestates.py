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
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .gammaseq import MatrixSeq, block_order, gamma_sequence
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


def _integer(x, name: str) -> int:
    # 2.0 and numpy integers are read as their integer, an int never as a float
    if not isinstance(x, (int, np.integer)) and not float(x).is_integer():
        raise ValueError(f"{name} must be an integer, got {x}")
    return int(x)


def finite_state(xi: int, u) -> PureState:
    xi = _integer(xi, "frequency")
    if abs(xi) > sys.float_info.max:
        raise ValueError(f"frequency must be at most {sys.float_info.max:.6e} in magnitude")
    vec = np.asarray(u, dtype=complex)
    if vec.ndim != 1:
        raise ValueError("state vector must be one-dimensional")
    if not np.isfinite(vec).all():
        raise ValueError(f"state vector must be finite, got {vec}")
    if abs(np.linalg.norm(vec) - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"state vector must be unit norm, got {np.linalg.norm(vec)}")
    return PureState(xi=xi, u=vec)


def limit_state() -> PureState:
    return PureState(xi=None, u=None)


def _state_gap(u: list, v: list) -> Tuple[float, int, int]:
    # max |D| for D = uu* - vv* (u, v lists), zero exactly when v is a
    # unimodular multiple of u, and the first (p, q), p <= q, attaining it,
    # in one scalar pass: a scalar complex product makes D_qp the exact
    # conjugate of D_pq, so the upper triangle holds every magnitude
    cu, cv = [z.conjugate() for z in u], [z.conjugate() for z in v]
    best, at = -1.0, (0, 0)
    for p, (up, vp) in enumerate(zip(u, v)):
        for q in range(p, len(u)):
            gap = abs(up * cu[q] - vp * cv[q])
            if gap > best:
                best, at = gap, (p, q)
    return best, at[0], at[1]


def _proportional(u: list, v: list) -> bool:
    # |D_00| = ||u_0|^2 - |v_0|^2| <= max |D|: a pair it puts past twice the
    # tolerance, far beyond any rounding of D, is refused without forming D
    return (len(u) == len(v)
            and abs(abs(u[0]) ** 2 - abs(v[0]) ** 2) <= 2.0 * PROPORTIONAL_TOL
            and _state_gap(u, v)[0] <= PROPORTIONAL_TOL)


def _block_value(b: np.ndarray, u: np.ndarray):
    """conj(u) . b u, the value on block b; real where its imaginary part is tiny."""
    if len(b) != len(u):
        raise ValueError(f"state vector has dimension {len(u)}, block has order {len(b)}")
    val = complex(np.vdot(u, b.dot(u)))
    return val.real if abs(val.imag) < 1e-14 * max(1.0, abs(val)) else val


def eval_state(s: PureState, a_seq: MatrixSeq):
    """Value of the state on a sequence: _block_value, or the scalar limit."""
    if s.xi is None:
        return a_seq.scalar_limit
    return _block_value(a_seq.block(s.xi), s.u)


def eval_state_integral(xi: int, u, a: SymbolSpec, n: int, alpha: float):
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


def _coincidence_vector(n: int, alpha: float) -> list:
    return ([math.sqrt((alpha + 3.0) / (2.0 * (alpha + 2.0))),
             math.sqrt((alpha + 1.0) / (2.0 * (alpha + 2.0)))] + [0.0] * (n - 2))


def coincidence_pair(n: int, alpha: float) -> Tuple[PureState, PureState]:
    """The documented pair of distinct states that agree on every
    generating sequence: frequency 0 with the two-component vector built
    from alpha, against frequency 2 with the first basis vector."""
    check_alpha(alpha)
    if n < 2:
        raise ValueError("the coincidence construction needs n >= 2")
    return finite_state(0, _coincidence_vector(n, alpha)), finite_state(2, np.eye(n)[0])


def _e0_like(u: list) -> bool:
    return _proportional(u, [1.0] + [0.0] * (len(u) - 1))


def _documented_coincidence(lo_xi: int, lo_u: list, hi_xi: int, hi_u: list,
                            n: int, alpha: float) -> Optional[str]:
    # the documented family of finite states at frequencies (-eta, eta) or (0, 2), named, or None
    if hi_xi == -lo_xi:
        if _e0_like(lo_u) and _e0_like(hi_u):
            return f"the documented ({lo_xi}, {hi_xi}) pair of first basis vectors"
    elif n >= 2 and _e0_like(hi_u) and _proportional(lo_u, _coincidence_vector(n, alpha)):
        return ("the documented (0, 2) pair (the alpha-vector at frequency 0, "
                "the first basis vector at frequency 2)")
    return None


_LIMIT_WITNESSES = (indicator_symbol(0.5), poly_t_symbol([1.0, -1.0]))  # tried in this order


@lru_cache(maxsize=512)
def _symbol_witness(a: SymbolSpec, n: int, alpha: float, xi_max: int) -> MatrixSeq:
    return gamma_sequence(a, n, alpha, xi_max)  # a limit-state witness, shared as-is


def _corner(n: int, alpha: float, eta):
    # c_d(|eta|)^2, the corner of K = gamma(t^2) - gamma(t)^2 at eta: the
    # squared Jacobi off-diagonal d (d + a)(d + b)(d + a + b) / (s^2 (s^2 - 1)),
    # d = min(n + eta, n), b = |eta|, s = 2d + a + b, for either sign of eta
    # n (n + a) x (x + a) / (s^2 (s - 1)(s + 1)), x = n + eta, s = 2n + a + eta.
    # Each sum adds an exact integer to alpha and is rounded once (s enters
    # twice); with the six products and the division that is 13 roundings
    x, m = n + eta, 2 * n + eta
    s = m + alpha
    return n * (n + alpha) * x * (x + alpha) / (s * s * ((m - 1 + alpha) * (m + 1 + alpha)))


def _normal_corner(n: int, alpha: float, eta: int) -> float:
    # _corner, refused where CORNER_REL_ERR fails: not a positive normal float
    c = _corner(n, alpha, eta)
    if not c >= sys.float_info.min:
        raise ValueError(f"alpha {alpha}: the corner certificate of separate reads the corner at "
                         f"frequency {eta} as {c:.1e}, not a positive normal float")
    return c


def _first(holds, lo: int, hi: Optional[int] = None) -> int:
    # the first x in (lo, hi] where holds, false then true; with no hi, hi - lo doubles from 1
    if hi is None:
        hi = lo + 1
        while not holds(hi):
            lo, hi = hi, 3 * hi - 2 * lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def _peak(n: int, alpha: float) -> int:
    """The first eta >= -n+1 with c(eta + 1) <= c(eta), c(x) = _corner at
    x = n + eta: the corners rise strictly before it, fall strictly from
    it.  With y = x + alpha, s = x + n + alpha, x y s (s^2 - 1) > 0 times
    d/dx log c is P(x) = s (s^2 - 1)(x + y) - 2 x y (2 s^2 - 1), whose
    coefficients from x^4 down, -2, -(5 alpha + 2n), 2n^2 - alpha n -
    3 alpha^2, alpha (alpha^2 + 4 alpha n + 5n^2 - 1) + 2n (n^2 - 1) and
    alpha (alpha + n)(alpha + n - 1)(alpha + n + 1), read -, -, any, +, +
    for alpha >= 0.  For alpha = b - 1 in (-1, 0], x = 1 + z, n = 2 + m
    give the z-coefficients -2, -(5b + 2m + 7), any, b^3 - b^2 - b + 9
    plus terms with positive coefficients in m, b >= 0, and a polynomial
    with positive coefficients; at n = 1 all are negative.  So P changes
    sign at most once in x >= 1 (Descartes' rule), from + to -, and _first
    finds the first eta of "c(eta + 1) <= c(eta)", exact in integers with
    alpha = a / q, S = (x + n) q + a: (x + 1)((x + 1) q + a) S (S - q) <=
    x (x q + a)(S + q)(S + 2q)."""
    a, q = alpha.as_integer_ratio()  # q = 2^e

    def falls(eta: int) -> bool:
        x, s = n + eta, (2 * n + eta) * q + a
        return (x + 1) * ((x + 1) * q + a) * s * (s - q) <= x * (x * q + a) * (s + q) * (s + 2 * q)

    return _first(falls, -n)


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

    The corners rise, then fall (_peak): on xi's branch the nearest are
    xi -+ 1, on the other the two around xi's corner, found by _first on
    the computed corners, each within CORNER_REL_ERR, so a gap above twice
    that orders the exact values; time and memory are O(log(alpha + xi)).
    Raises ValueError, naming alpha, where a corner read is not a positive
    normal float (s >= 1.2e77 overflows s^4), and NotSeparableError, naming
    both frequencies, for a gap at or below CORNER_GAP_MIN."""
    corner = _normal_corner(n, alpha, xi)
    peak = _peak(n, alpha)
    bracket = (_first(lambda eta: _corner(n, alpha, eta) <= corner, peak) if xi < peak
               else _first(lambda eta: _corner(n, alpha, eta) >= corner, -n, peak))
    gap, eta = min((abs(_normal_corner(n, alpha, eta) - corner) / corner, eta)
                   for eta in sorted({xi - 1, xi + 1, bracket - 1, bracket} - {xi, -n}))
    if not gap > CORNER_GAP_MIN:
        raise NotSeparableError(f"the corners of gamma(t^2) - gamma(t)^2 at frequencies {xi} and "
                                f"{eta} are {gap:.1e} apart, relative, within their float error")
    return corner, gap


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


def _wrong_dimension(d: int, n: int, xi: int) -> ValueError:
    # a unit vector is never empty, so a xi below -n+1 or an n < 1 lands here: block_order raises
    return ValueError(f"state vector has dimension {d}, block has order {block_order(n, xi)}")


def _separation(s1: PureState, s2: PureState, n: int, alpha: float, infinity_witness) -> tuple:
    # separation's witness, values and recipe as immutable parts: (a,) for
    # symbol a's sequence, (xi, p, q, combination or None, corner, gap) for
    # a unit; a vector is read, as a list, only where its entries are used
    check_alpha(alpha)
    if type(n) is not int:
        n = _integer(n, "n")
    xi1, xi2 = s1.xi, s2.xi
    if xi1 is not None and len(s1.u) != (n if xi1 >= 0 else n + xi1):
        raise _wrong_dimension(len(s1.u), n, xi1)
    if xi2 is not None and len(s2.u) != (n if xi2 >= 0 else n + xi2):
        raise _wrong_dimension(len(s2.u), n, xi2)
    if infinity_witness is not None and xi1 is not None and xi2 is not None:
        raise ValueError("--symbol is the witness of a limit-state pair; neither state is inf")

    if xi1 is None or xi2 is None:
        if xi1 == xi2:
            raise NotSeparableError("identical pure states")
        fin_xi = xi2 if xi1 is None else xi1
        candidates = _LIMIT_WITNESSES if infinity_witness is None else (infinity_witness,)
        for a in candidates:
            try:
                witness = _symbol_witness(a, n, float(alpha), max(fin_xi, 0))
            except ValueError:
                if a is candidates[-1]:  # only the last one's refusal is the answer
                    raise
                continue
            vals = (eval_state(s1, witness), eval_state(s2, witness))
            if abs(vals[0] - vals[1]) > MIN_GAP:
                break
        parts = (witness.symbol,)
    else:
        # eval_state's values, real part, on the exact units, in np.vdot's
        # arithmetic on these blocks bit for bit: conj(u_p) u_q for E_pp
        # (0.0 at the other frequency of a cross pair) and twice its real
        # part for the sym unit; the skew unit's as eval_state's quadratic form
        if xi1 == xi2:
            # one D = uu* - vv* decides both: the same state, or the unit
            u1, u2 = s1.u.tolist(), s2.u.tolist()
            gap, p, q = _state_gap(u1, u2)
            if gap <= PROPORTIONAL_TOL:
                raise NotSeparableError("identical pure states")
            xi, vals = xi1, ((u1[p].conjugate() * u1[q]).real, (u2[p].conjugate() * u2[q]).real)
        else:
            lo, hi = (s1, s2) if xi1 < xi2 else (s2, s1)
            xi, u = hi.xi, hi.u.tolist()
            if xi == -lo.xi or (lo.xi == 0 and xi == 2):
                family = _documented_coincidence(lo.xi, lo.u.tolist(), xi, u, n, alpha)
                if family:
                    raise NotSeparableError(f"{family} agrees on every generating sequence")
            top = -1.0
            for j, z in enumerate(u):  # p = q, the first largest entry
                m = abs(z)
                if m > top:
                    p, top = j, m
            q, z = p, u[p]
            w = (z.conjugate() * z).real
            vals = (w, 0.0) if hi is s1 else (0.0, w)
        (corner, cert_gap), witnesses, skew = _unit_witness(n, float(alpha), xi, p, q)
        k = 0
        if p != q:
            vals = (2.0 * vals[0], 2.0 * vals[1])
            skw = (complex(np.vdot(s1.u, skew.dot(s1.u))).real,
                   complex(np.vdot(s2.u, skew.dot(s2.u))).real)
            if abs(skw[0] - skw[1]) > abs(vals[0] - vals[1]):  # sym on a tie
                k, vals = 1, skw
        combination = ("sym", "skew")[k] if p != q else None
        witness, parts = witnesses[k], (xi, p, q, combination, corner, cert_gap)
    if abs(vals[0] - vals[1]) <= MIN_GAP:
        raise NotSeparableError(f"constructed witness produced values {vals[0]} and "
                                f"{vals[1]} closer than {MIN_GAP}")
    return witness, vals, parts


def separation(s1: PureState, s2: PureState, n: int, alpha: float,
               infinity_witness: Optional[SymbolSpec] = None) -> Tuple[MatrixSeq, Tuple[float, float], dict]:
    """Produce a witness sequence on which the two states differ, with the
    pair of state values and the recipe the witness was built from, a
    dict built fresh on every call: {"symbol": a} for the sequence of
    symbol a, or {"unit": {"xi", "p", "q", "combination", "corner",
    "gap"}} for a matrix-unit combination at frequency xi, zero at every
    other frequency and at infinity: E_pp, or for p != q (the only case
    with a "combination") E_pq + E_qp ("sym") or i (E_pq - E_qp)
    ("skew"); "corner" and "gap" are the certificate of
    _corner_certificate that puts it in C*(gamma).

    Same-frequency pairs take the unit at the first (p, q), p <= q,
    maximising |u_p conj(u_q) - v_p conj(v_q)|, and are identical when
    that is within PROPORTIONAL_TOL (off-diagonal units are evaluated
    through their Hermitian and skew-Hermitian combinations, whichever
    has the larger gap); a limit state is told apart from a finite state
    by the first of indicator_symbol(0.5) (blocks decaying like 4^-xi, refused
    past the moment guard) and 1 - t (blocks I - J_xi, positive definite)
    whose gap exceeds MIN_GAP, or by infinity_witness alone, whose
    refusal propagates; each sequence is cached per (symbol, n, alpha,
    xi_max).  Distinct finite frequencies take E_pp at the higher
    frequency, p the first largest entry of its vector, which is zero at
    the lower one.  Raises ValueError for an alpha that is not a finite
    number above -1, for an n that is not an integer (read as
    finite_state reads a frequency), for a vector whose dimension is not
    its frequency's block order and for an infinity_witness given to two
    finite states (the CLI's --symbol), before any cache is read, and for a finite pair
    whose certificate reads a corner that is not a positive normal float;
    NotSeparableError for equal states, for the documented coincidence
    families and where the certificate finds a frequency's corner shared.
    """
    witness, vals, parts = _separation(s1, s2, n, alpha, infinity_witness)
    if len(parts) == 1:
        return witness, vals, {"symbol": parts[0]}
    unit = dict(zip(("xi", "p", "q", "combination", "corner", "gap"), parts))
    if unit["combination"] is None:
        del unit["combination"]
    return witness, vals, {"unit": unit}


def separate(s1: PureState, s2: PureState, n: int, alpha: float,
             infinity_witness: Optional[SymbolSpec] = None) -> Tuple[MatrixSeq, Tuple[float, float]]:
    """The witness sequence and the pair of state values of separation,
    with no recipe built."""
    witness, vals, _ = _separation(s1, s2, n, alpha, infinity_witness)
    return witness, vals


def closure_gap_witness(n: int, alpha: float, xi_max: int) -> MatrixSeq:
    """The sequence up to xi_max with identity at frequency 2 and zero
    blocks elsewhere, scalar limit zero.  It belongs to the limit algebra
    and separates the documented coincidence pair (values 0 and 1),
    although no single generating sequence can.  Refuses a bad alpha
    first, then n < 2 and xi_max < 2."""
    check_alpha(alpha)
    if n < 2:
        raise ValueError("the witness construction needs n >= 2")
    if xi_max < 2:
        raise ValueError(f"xi_max must be at least 2, got {xi_max}")
    blocks = np.zeros((xi_max + n, n, n))
    blocks[n + 1] = np.eye(n)
    return MatrixSeq(n=n, alpha=alpha, blocks=blocks, scalar_limit=0.0)
