"""Radial generating symbols on [0, 1), stored in the t = r^2 variable.

A symbol is the radial profile a(r) of a bounded radial function on the
unit disk.  All entry integrals downstream are taken in t = r^2, so the
stored data is whatever makes a(sqrt(t)) directly evaluable: a constant,
the indicator of [0, s) in r, a polynomial in t, a generating Jacobi
polynomial symbol, or a sampled table with linear interpolation.
Instances are immutable after construction and freely shareable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .jacobi import MAX_MOMENT_DEGREE, JacobiParams, dyadic, q_eval

__all__ = [
    "SymbolSpec",
    "const_symbol",
    "indicator_symbol",
    "poly_t_symbol",
    "make_gp",
    "sampled_symbol",
    "eval_at_t",
    "sup_abs",
    "symbol_to_json_obj",
    "symbol_from_json_obj",
]

KINDS = ("const", "indicator", "poly_t", "jacobi_g", "sampled")


@dataclass(frozen=True)
class SymbolSpec:
    kind: str
    value: Optional[complex] = None          # const
    s: Optional[float] = None                # indicator threshold in r
    coeffs: Optional[tuple] = None           # poly_t, powers of t
    p: Optional[int] = None                  # jacobi_g degree
    alpha: Optional[float] = None            # jacobi_g weight exponent
    points: Optional[tuple] = None           # sampled: ((t, value), ...)
    limit: Optional[complex] = None          # boundary value at r -> 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown symbol kind {self.kind!r}")


def _as_scalar(v):
    z = complex(v)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"symbol values must be finite, got {v}")
    return z.real if z.imag == 0.0 else z


def const_symbol(value) -> SymbolSpec:
    v = _as_scalar(value)
    return SymbolSpec(kind="const", value=v, limit=v)


def indicator_symbol(s: float) -> SymbolSpec:
    """Indicator of [0, s) in the r variable; 1 iff t < s^2."""
    if not 0.0 < s < 1.0:
        raise ValueError(f"indicator threshold must lie in (0, 1), got {s}")
    return SymbolSpec(kind="indicator", s=float(s), limit=0.0)


def poly_t_symbol(coeffs: Sequence) -> SymbolSpec:
    """Polynomial in t: a(sqrt(t)) = sum coeffs[k] t^k."""
    cs = tuple(_as_scalar(c) for c in coeffs)
    if not cs:
        raise ValueError("polynomial symbol needs at least one coefficient")
    lim = _as_scalar(sum(cs))
    return SymbolSpec(kind="poly_t", coeffs=cs, limit=lim)


@lru_cache(maxsize=512)
def make_gp(p: int, alpha: float) -> SymbolSpec:
    """Generating symbol number p: the degree-p polynomial for the
    (alpha, 0) weight, composed with r^2 (so in t it is the polynomial
    itself).  Its boundary value is the polynomial at t = 1,
    C(alpha + p, p) = prod_{i=1..p} (alpha + i) / p!, formed in integers
    and rounded once.  A p that is not an integer in 0 .. MAX_MOMENT_DEGREE
    is refused (every block of a higher g_p within the moment guard is
    zero).  Symbols are immutable, so one instance per (p, alpha) is
    shared.
    """
    if p not in range(MAX_MOMENT_DEGREE + 1):
        raise ValueError(f"generator index {p} outside the integers 0 .. {MAX_MOMENT_DEGREE}")
    p = int(p)
    num, e = dyadic(alpha)
    rising = math.prod(num + (i << e) for i in range(1, p + 1))
    return SymbolSpec(kind="jacobi_g", p=p, alpha=float(alpha),
                      limit=rising / (math.factorial(p) << (e * p)))


def sampled_symbol(points: Sequence) -> SymbolSpec:
    """Tabulated symbol; linear interpolation in t, constant beyond the
    last node, so its limit is the last value.  Excluded from the
    exact-integration guarantees."""
    pts = tuple((float(t), _as_scalar(v)) for t, v in points)
    if len(pts) < 2:
        raise ValueError("sampled symbol needs at least two points")
    ts = [t for t, _ in pts]
    if not all(a < b for a, b in zip(ts, ts[1:])):
        raise ValueError("sampled t-values must be strictly increasing")
    if not (0.0 <= ts[0] and ts[-1] < 1.0):
        raise ValueError("sampled t-values must lie in [0, 1)")
    return SymbolSpec(kind="sampled", points=pts, limit=pts[-1][1])


def _poly_eval(coeffs, t):
    # a poly_t symbol's monomial sum, Kahan-compensated; elementwise in t
    acc, comp, power = coeffs[0] * (t * 0 + 1.0), t * 0.0, t * 0 + 1.0
    for c in coeffs[1:]:
        power = power * t
        term = c * power - comp
        new = acc + term
        comp, acc = (new - acc) - term, new
    return acc


def eval_at_t(a: SymbolSpec, t):
    """Value of the symbol at radius r = sqrt(t); t scalar or array."""
    if a.kind == "const":
        return a.value * (t * 0 + 1.0) if not np.isscalar(t) else a.value
    if a.kind == "indicator":
        cut = a.s * a.s
        if np.isscalar(t):
            return 1.0 if t < cut else 0.0
        return np.where(np.asarray(t) < cut, 1.0, 0.0)
    if a.kind == "poly_t":
        return _poly_eval(a.coeffs, t)
    if a.kind == "jacobi_g":
        return q_eval(JacobiParams(a.alpha, 0.0, a.p), t)
    if a.kind == "sampled":
        ts = np.array([p[0] for p in a.points])
        vs = np.array([p[1] for p in a.points])
        out = np.interp(np.asarray(t, dtype=float), ts, vs)
        return out.item() if np.isscalar(t) else out
    raise ValueError(f"unknown symbol kind {a.kind!r}")


def sup_abs(a: SymbolSpec) -> float:
    """Supremum of |a| over [0, 1).

    Exact for const/indicator, and for g_p = P_p^(alpha,0)(2t - 1) the
    larger of |g_p(0)| = 1 and g_p(1) (Szego, Theorem 7.32.1); for a poly_t
    the critical points of |a|, where Re(a' conj(a)) = 0, are solved so the
    maximum is no grid estimate.
    """
    if a.kind == "const":
        return abs(a.value)
    if a.kind == "indicator":
        return 1.0
    if a.kind == "jacobi_g":
        return max(a.limit, 1.0)
    if a.kind == "poly_t":
        cs = np.array([complex(c) for c in a.coeffs])
        # d|a|^2/dt / 2 has real coefficients, so a real companion matrix
        # keeps a simple real root real
        deriv = cs[1:] * np.arange(1, len(cs))
        deriv = (np.convolve(deriv, cs.conj()) if len(deriv) and np.any(cs.imag) else deriv).real
        # scaled into [1/2, 1) by two exact powers of two, so np.roots sees no
        # subnormal; a leading coefficient below eps would put roots near
        # 1 / eps into its companion matrix and spoil those in [0, 1]
        e = math.frexp(np.max(np.abs(deriv), initial=0.0))[1]
        full = deriv = deriv * math.ldexp(1.0, -(e // 2)) * math.ldexp(1.0, e // 2 - e)
        while len(deriv) >= 2 and abs(deriv[-1]) < np.finfo(float).eps:
            deriv = deriv[:-1]
        roots = np.roots(deriv[::-1]).real
        roots = roots[(roots > 0.0) & (roots < 1.0)]
        # Newton steps on the full polynomial polish each root, which a
        # small leading coefficient can leave off; every point in [0, 1]
        # is a lower bound, so the unpolished roots stay candidates
        f, df = full[::-1], np.polyder(full[::-1])
        polished = roots
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(8):
                step = np.polyval(f, polished) / np.polyval(df, polished)
                polished = np.clip(polished - np.where(np.isfinite(step), step, 0.0), 0.0, 1.0)
        candidates = [0.0, 1.0, *roots.tolist(), *polished.tolist()]
        return max(abs(_poly_eval(a.coeffs, t)) for t in candidates)
    if a.kind == "sampled":
        return max(abs(v) for _, v in a.points)
    raise ValueError(f"unknown symbol kind {a.kind!r}")


def _scalar_to_json(v):
    v = complex(v)
    return v.real if v.imag == 0.0 else [v.real, v.imag]


def _real_from_json(obj) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)) or not math.isfinite(obj):
        raise ValueError(f"expected a finite number, got {obj!r}")
    return float(obj)


def _scalar_from_json(obj):
    if isinstance(obj, (list, tuple)):
        re, im = obj
        return complex(_real_from_json(re), _real_from_json(im))
    return _real_from_json(obj)


def symbol_to_json_obj(a: SymbolSpec) -> dict:
    if a.kind == "const":
        return {"kind": "const", "value": _scalar_to_json(a.value)}
    if a.kind == "indicator":
        return {"kind": "indicator", "s": a.s}
    if a.kind == "poly_t":
        return {"kind": "poly_t", "coeffs": [_scalar_to_json(c) for c in a.coeffs]}
    if a.kind == "jacobi_g":
        return {"kind": "jacobi_g", "p": a.p, "alpha": a.alpha}
    if a.kind == "sampled":
        return {
            "kind": "sampled",
            "points": [[t, _scalar_to_json(v)] for t, v in a.points],
            "limit": _scalar_to_json(a.limit),
        }
    raise ValueError(f"unknown symbol kind {a.kind!r}")


def symbol_from_json_obj(obj: dict, alpha: Optional[float] = None) -> SymbolSpec:
    """Decode a symbol.  A missing or ill-typed field is refused with the
    kind and its name: numbers are finite and not booleans, a complex one
    an [re, im] pair.  A jacobi_g entry may omit its weight exponent, in
    which case the contextual alpha (e.g. from the run configuration) is
    used.  A sampled entry may omit its limit, which is the last value;
    a limit that differs is refused."""
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise ValueError("symbol JSON must be an object with a 'kind' field")

    def field(name, decode, default=None):
        # a missing field reads as null, which no decoder accepts
        try:
            return decode(obj.get(name, default))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{kind} symbol field {name!r}: {exc}") from None

    if kind == "const":
        return const_symbol(field("value", _scalar_from_json))
    if kind == "indicator":
        return indicator_symbol(field("s", _real_from_json))
    if kind == "poly_t":
        return poly_t_symbol(field("coeffs", lambda cs: [_scalar_from_json(c) for c in cs]))
    if kind == "jacobi_g":
        return make_gp(field("p", _real_from_json), field("alpha", _real_from_json, alpha))
    if kind == "sampled":
        a = sampled_symbol(field("points", lambda pts: [
            (_real_from_json(t), _scalar_from_json(v)) for t, v in pts]))
        if obj.get("limit") is not None and field("limit", _scalar_from_json) != a.limit:
            raise ValueError(f"sampled limit {obj['limit']} is not the last value {a.limit}")
        return a
    raise ValueError(f"unknown symbol kind {kind!r}")
