"""Compute the mpmath references of the benchmark pools and store them in
refs/.

    python3 perfbench/make_refs.py

Every entry of a block is

    k_j k_k * sum_m (Q_j Q_k)_m * E_{m+|xi|},
    E_m = integral over [0, 1] of a(sqrt(t)) t^m (1-t)^alpha dt,

with the Jacobi coefficients, normalization constants and symbol moments
evaluated in mpmath at WORK_DPS digits.  Each block is recomputed at
CHECK_DPS digits and the script stops if the two disagree beyond
AGREE_TOL, or if a constant symbol does not give a multiple of the
identity.  Only a sample of frequencies per request is stored (see
pool.sample_xis); the benchmark checks those blocks.
"""

from __future__ import annotations

import json
import os
import sys

import mpmath
import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pool  # noqa: E402

WORK_DPS = 120
CHECK_DPS = 160
AGREE_TOL = mpmath.mpf(10) ** -40
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def _jacobi_coeffs(alpha, beta, m):
    """Monomial coefficients of the degree-m shifted Jacobi polynomial for
    the weight (1-t)^alpha t^beta on (0, 1)."""
    return [
        mpmath.binomial(alpha + beta + m + k, k)
        * mpmath.binomial(beta + m, m - k)
        * (-1) ** (m - k)
        for k in range(m + 1)
    ]


def _norm_sq(alpha, beta, m):
    return (
        (2 * m + alpha + beta + 1)
        * mpmath.gamma(m + alpha + beta + 1)
        * mpmath.factorial(m)
        / (mpmath.gamma(m + alpha + 1) * mpmath.gamma(m + beta + 1))
    )


def _lower_moments(x, alpha, top):
    """I_m(x) = integral over [0, x] of t^m (1-t)^alpha, m = 0..top, by
    the recurrence (m+alpha+1) I_m = m I_{m-1} - x^m (1-x)^(alpha+1)."""
    if x == 0:
        return [mpmath.mpf(0)] * (top + 1)
    tail = (1 - x) ** (alpha + 1)
    out = [(1 - tail) / (alpha + 1)]
    xm = mpmath.mpf(1)
    for m in range(1, top + 1):
        xm *= x
        out.append((m * out[-1] - xm * tail) / (m + alpha + 1))
    return out


def _symbol_moments(symbol, alpha, top):
    """E_0..E_top for the symbol (alpha is the run's weight exponent,
    also the contextual exponent of a jacobi_g symbol)."""
    kind = symbol["kind"]
    if kind == "const":
        c = mpmath.mpf(symbol["value"])
        return [c * mpmath.beta(m + 1, alpha + 1) for m in range(top + 1)]
    if kind in ("poly_t", "jacobi_g"):
        if kind == "jacobi_g":
            coeffs = _jacobi_coeffs(alpha, 0, symbol["p"])
        else:
            coeffs = [
                mpmath.mpc(c[0], c[1]) if isinstance(c, list) else mpmath.mpf(c)
                for c in symbol["coeffs"]
            ]
        full = [mpmath.beta(m + 1, alpha + 1) for m in range(top + len(coeffs))]
        return [sum(c * full[m + r] for r, c in enumerate(coeffs)) for m in range(top + 1)]
    if kind == "indicator":
        x = mpmath.mpf(symbol["s"]) ** 2
        return _lower_moments(x, alpha, top)
    if kind == "sampled":
        ts = [mpmath.mpf(p[0]) for p in symbol["points"]]
        vs = [mpmath.mpf(p[1]) for p in symbol["points"]]
        at = [_lower_moments(t, alpha, top + 1) for t in ts]
        at.append([mpmath.beta(m + 1, alpha + 1) for m in range(top + 2)])
        out = [vs[0] * at[0][m] for m in range(top + 1)]  # constant below ts[0]
        for i in range(len(ts) - 1):
            slope = (vs[i + 1] - vs[i]) / (ts[i + 1] - ts[i])
            a0 = vs[i] - slope * ts[i]
            for m in range(top + 1):
                out[m] += a0 * (at[i + 1][m] - at[i][m]) + slope * (
                    at[i + 1][m + 1] - at[i][m + 1]
                )
        for m in range(top + 1):  # constant beyond the last node
            out[m] += vs[-1] * (at[-1][m] - at[-2][m])
        return out
    raise ValueError(kind)


def ref_blocks(symbol, n, alpha_f, xis, dps):
    """Reference blocks (lists of mp rows) at the given frequencies."""
    with mpmath.workdps(dps):
        alpha = mpmath.mpf(alpha_f)
        top = 2 * (n - 1) + max(abs(x) for x in xis)
        moments = _symbol_moments(symbol, alpha, top)
        out = {}
        for xi in xis:
            beta = abs(xi)
            d = min(n + xi, n)
            qs = [_jacobi_coeffs(alpha, beta, j) for j in range(d)]
            ks = [mpmath.sqrt(_norm_sq(alpha, beta, j)) for j in range(d)]
            rows = [[None] * d for _ in range(d)]
            for j in range(d):
                for k in range(j, d):
                    acc = 0
                    for i, cj in enumerate(qs[j]):
                        for l, ck in enumerate(qs[k]):
                            acc += cj * ck * moments[beta + i + l]
                    rows[j][k] = rows[k][j] = ks[j] * ks[k] * acc
            out[xi] = rows
        return out


def _to_json_scalar(v):
    v = mpmath.mpc(v)
    if v.imag == 0:
        return float(v.real)
    return [float(v.real), float(v.imag)]


def _as_array(rows):
    if any(isinstance(v, list) for row in rows for v in row):
        return np.array([[complex(*v) if isinstance(v, list) else v for v in row] for row in rows])
    return np.array(rows, dtype=float)


def sup_abs(symbol, alpha_f) -> float:
    """sup |a| on [0, 1): exact for const, indicator and sampled tables,
    a dense-grid maximum for polynomials."""
    kind = symbol["kind"]
    if kind == "const":
        return abs(symbol["value"])
    if kind == "indicator":
        return 1.0
    if kind == "sampled":
        return max(abs(p[1]) for p in symbol["points"])
    with mpmath.workdps(30):
        if kind == "jacobi_g":
            coeffs = [complex(c) for c in _jacobi_coeffs(mpmath.mpf(alpha_f), 0, symbol["p"])]
        else:
            coeffs = [complex(*c) if isinstance(c, list) else complex(c) for c in symbol["coeffs"]]
    grid = np.linspace(0.0, 1.0, 20001)
    return float(np.max(np.abs(np.polynomial.polynomial.polyval(grid, coeffs))))


def boundary_limit(symbol, alpha_f):
    kind = symbol["kind"]
    if kind == "const":
        return symbol["value"]
    if kind == "indicator":
        return 0.0
    if kind == "sampled":
        return symbol["limit"]
    with mpmath.workdps(WORK_DPS):
        if kind == "jacobi_g":
            return float(sum(_jacobi_coeffs(mpmath.mpf(alpha_f), 0, symbol["p"])))
        total = sum(mpmath.mpc(*c) if isinstance(c, list) else mpmath.mpf(c)
                    for c in symbol["coeffs"])
        return _to_json_scalar(total)


def checked_blocks(symbol, n, alpha, xis):
    """Blocks at WORK_DPS, verified against CHECK_DPS."""
    lo = ref_blocks(symbol, n, alpha, xis, WORK_DPS)
    hi = ref_blocks(symbol, n, alpha, xis, CHECK_DPS)
    with mpmath.workdps(CHECK_DPS):
        for xi in xis:
            for rl, rh in zip(lo[xi], hi[xi]):
                for a, b in zip(rl, rh):
                    if abs(a - b) > AGREE_TOL * max(1, abs(b)):
                        raise SystemExit(
                            f"reference unstable: {symbol['kind']} n={n} alpha={alpha} xi={xi}"
                        )
            if symbol["kind"] == "const":
                c = mpmath.mpf(symbol["value"])
                for j, row in enumerate(hi[xi]):
                    for k, v in enumerate(row):
                        if abs(v - (c if j == k else 0)) > AGREE_TOL:
                            raise SystemExit(f"constant symbol is not c*I at xi={xi}")
    return lo


def gamma_reference(item: dict) -> dict:
    n, alpha, xi_max = item["n"], item["alpha"], item["xi_max"]
    symbol = item["symbol"]
    xis = pool.sample_xis(n, xi_max)
    blocks = checked_blocks(symbol, n, alpha, xis)
    lim = boundary_limit(symbol, alpha)
    lim_c = complex(*lim) if isinstance(lim, list) else complex(lim)
    out = {}
    for xi in xis:
        arr = _as_array([[_to_json_scalar(v) for v in row] for row in blocks[xi]])
        entry = {
            "rows": [[_to_json_scalar(v) for v in row] for row in blocks[xi]],
            "norm": float(np.linalg.norm(arr, 2)),
        }
        if xi >= 0:
            entry["tail"] = float(np.linalg.norm(arr - lim_c * np.eye(arr.shape[0]), 2))
        out[str(xi)] = entry
    return {"sup_abs": sup_abs(symbol, alpha), "limit": lim, "blocks": out}


def separate_reference() -> dict:
    """Blocks of the indicator(0.5) witness used for limit-state pairs."""
    symbol = {"kind": "indicator", "s": 0.5}
    out = {}
    for n in pool.SEPARATE_NS:
        for alpha in pool.SEPARATE_ALPHAS:
            xis = list(range(-n + 1, pool.SEPARATE_XI_TOP + 1))
            blocks = checked_blocks(symbol, n, alpha, xis)
            out[f"{n}/{alpha!r}"] = {
                str(xi): [[float(v) for v in row] for row in blocks[xi]] for xi in xis
            }
    return out


def main() -> None:
    os.makedirs(REFS_DIR, exist_ok=True)
    for workload in ("gamma-exact", "gamma-float"):
        refs = {}
        for name, items in dict(pool.gamma_strata(workload)).items():
            for item in items:
                refs[pool.item_key(item)] = gamma_reference(item)
            print(f"{workload}: {name} done", flush=True)
        with open(os.path.join(REFS_DIR, f"{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(refs, fh, separators=(",", ":"))
    with open(os.path.join(REFS_DIR, "separate.json"), "w", encoding="utf-8") as fh:
        json.dump(separate_reference(), fh, separators=(",", ":"))
    print("separate done")


if __name__ == "__main__":
    main()
