"""Runnable invariant suite behind the command-line `verify` subcommand.

Each check returns (ok, detail); the driver prints one line per check.
Checks that depend on the sup bound are skipped with an explicit notice
when the weight exponent is not positive, because no bound of that shape
is established there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import integration, jacobi, special_fn
from .gammaseq import (
    frequencies,
    gamma_matrix,
    gamma_sequence,
    negative_submatrix_check,
    spectral_norm,
    tail_deviation,
)
from .generators import antitriangular_report, generator_block, matrix_unit, nu_table
from .purestates import (
    NotSeparableError,
    closure_gap_witness,
    coincidence_pair,
    eval_state,
    eval_state_integral,
    finite_state,
    limit_state,
    separate,
)
from .symbols import const_symbol, indicator_symbol, make_gp, poly_t_symbol, sup_abs

SKIP = "skip"


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str


def _alphas(alpha: Optional[float]) -> list:
    return [alpha] if alpha is not None else [0.0, 1.0, 2.5]


def check_gamma_inequalities(cfg) -> Tuple[bool, str]:
    rng = np.random.default_rng(cfg.seed)
    worst = True
    for _ in range(1000):
        z = float(rng.uniform(1e-6, 100.0))
        a = float(rng.uniform(1e-6, 10.0))
        k = int(rng.integers(0, 31))
        worst = worst and special_fn.wendel_bound_holds(z, a)
        worst = worst and special_fn.binom_bound_holds(z, k)
    return worst, "1000 random (z, a, k) points"


def check_beta_kernel(cfg) -> Tuple[bool, str]:
    rng = np.random.default_rng(cfg.seed)
    ok = True
    for _ in range(200):
        x, y = rng.uniform(0.05, 40.0, size=2)
        bxy = special_fn.beta(float(x), float(y))
        ok = ok and abs(bxy - special_fn.beta(float(y), float(x))) <= 1e-12 * bxy
    prev = 0.0
    for x in np.linspace(0.0, 1.0, 101):
        cur = special_fn.reg_incomplete_beta(float(x), 2.5, 3.5)
        ok = ok and cur >= prev - 1e-14
        prev = cur
    return ok, "Beta symmetry + incomplete-beta monotonicity"


def check_orthogonality(cfg) -> Tuple[bool, str]:
    worst = 0.0
    for alpha in _alphas(cfg.alpha):
        for beta in range(0, 5):
            for p in range(6):
                for q in range(p, 6):
                    cp = jacobi.q_coeffs_exact(alpha, beta, p)
                    cq = jacobi.q_coeffs_exact(alpha, beta, q)
                    conv = np.convolve(
                        [float(c) for c in cp], [float(c) for c in cq]
                    )
                    val = integration.weighted_product_integral(conv, alpha, beta)
                    if p == q:
                        target = 1.0 / float(
                            jacobi.norm_coeff_sq_exact(alpha, beta, p)
                        )
                    else:
                        target = 0.0
                    worst = max(worst, abs(val - target))
    return worst < 1e-10, f"max deviation {worst:.2e}"


def check_moment_identity(cfg) -> Tuple[bool, str]:
    worst = 0.0
    for alpha in _alphas(cfg.alpha):
        for xi in range(0, 5):
            for m in range(6):
                coeffs = [0.0] * m + [float(c) for c in jacobi.q_coeffs_exact(alpha, xi, m)]
                val = integration.weighted_product_integral(coeffs, alpha, xi)
                target = special_fn.beta(xi + m + 1.0, alpha + m + 1.0)
                worst = max(worst, abs(val - target) / target)
    return worst < 1e-10, f"max relative deviation {worst:.2e}"


def check_jacobi_fn_orthonormal(cfg) -> Tuple[bool, str]:
    # the unit polynomial, not the constant: constants return value * I
    # without integrating
    one = poly_t_symbol([1.0])
    worst = 0.0
    for alpha in _alphas(cfg.alpha):
        for xi in range(0, 6):
            for j in range(4):
                for k in range(j, 4):
                    val = integration.beta_entry(one, alpha, xi, j, k)
                    worst = max(worst, abs(val - (1.0 if j == k else 0.0)))
    return worst < 1e-12, f"max deviation from identity {worst:.2e}"


def check_sup_bound(cfg) -> Tuple[bool, str]:
    alphas = [a for a in _alphas(cfg.alpha) if a > 0.0]
    if not alphas:
        return SKIP, "unproven for alpha <= 0; skipped"
    rng = np.random.default_rng(cfg.seed)
    ok = True
    for _ in range(30):
        alpha = float(rng.choice(alphas))
        betam = int(rng.integers(0, 41))
        m = int(rng.integers(0, 6))
        x = float(rng.uniform(0.05, 0.95))
        params = jacobi.JacobiParams(alpha, float(betam), m)
        bound = jacobi.jac_sup_bound(params, x)
        pts = np.linspace(0.0, x, 1500)
        seen = np.max(np.abs(jacobi.jac_fn_eval(params, pts)))
        ok = ok and seen <= bound * (1 + 1e-12)
    return ok, "grid sup dominated by the closed-form bound"


def check_gamma_basics(cfg) -> Tuple[bool, str]:
    n = cfg.n
    msgs = []
    ok = True
    for alpha in _alphas(cfg.alpha):
        seq = gamma_sequence(const_symbol(1.0), n, alpha, 8)
        dev = max(
            float(np.max(np.abs(seq.block(xi) - np.eye(seq.block(xi).shape[0]))))
            for xi in frequencies(n, 8)
        )
        ok = ok and dev < 1e-12
        msgs.append(f"identity dev {dev:.1e}")
        a = poly_t_symbol([0.3, -0.2, 0.5])
        b = poly_t_symbol([0.1, 0.4])
        combo = poly_t_symbol([0.3 + 0.1, -0.2 + 0.4, 0.5])
        for xi in (-n + 1, 0, 3):
            ga = gamma_matrix(a, n, alpha, xi)
            gb = gamma_matrix(b, n, alpha, xi)
            gc = gamma_matrix(combo, n, alpha, xi)
            ok = ok and float(np.max(np.abs(ga + gb - gc))) < 1e-12
            ok = ok and np.array_equal(ga, ga.T)
        for sym in (indicator_symbol(0.5), poly_t_symbol([0.2, -0.4, 0.3])):
            seq2 = gamma_sequence(sym, n, alpha, 8)
            for xi in frequencies(n, 8):
                evs = np.linalg.eigvalsh(seq2.block(xi))
                ok = ok and evs.min() >= -1e-10
                ok = ok and spectral_norm(seq2.block(xi)) <= sup_abs(sym) + 1e-9
    return ok, "; ".join(msgs[:1]) + "; linearity, symmetry, PSD, norm bound"


def check_antitriangular(cfg) -> Tuple[bool, str]:
    n = min(cfg.n, 4)
    ok = True
    for alpha in _alphas(cfg.alpha):
        for xi in range(-n + 1, 4):
            d = min(n + xi, n)
            for p in range(0, 2 * d - 2 + abs(xi) + 1):
                rep = antitriangular_report(
                    generator_block(n, alpha, xi, p),
                    p - abs(xi),
                    tol_zero=cfg.tol_zero,
                    tol_nonzero=cfg.tol_nonzero,
                )
                ok = ok and rep.holds
    return ok, "generating-symbol blocks have the expected antidiagonal profile"


def check_zero_blocks(cfg) -> Tuple[bool, str]:
    n = min(cfg.n, 4)
    worst = 0.0
    for alpha in _alphas(cfg.alpha):
        for xi in range(-n + 1, 4):
            d = min(n + xi, n)
            for p in range(2 * d - 1 + abs(xi), 2 * d + 4 + abs(xi)):
                worst = max(
                    worst, float(np.max(np.abs(generator_block(n, alpha, xi, p))))
                )
    return worst < 1e-10, f"max entry of structurally-zero blocks {worst:.2e}"


def check_matrix_units(cfg) -> Tuple[bool, str]:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for n in range(2, min(cfg.n, 5) + 1):
        for _ in range(10):
            gs = []
            for p in range(n):
                g = np.zeros((n, n))
                for j in range(n):
                    for k in range(n):
                        if j + k > n - 1 + p:
                            g[j, k] = rng.uniform(-1.0, 1.0)
                        elif j + k == n - 1 + p:
                            g[j, k] = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.2)
                gs.append(g)
            table = nu_table(gs)
            for p in range(n):
                for q in range(n):
                    e = np.zeros((n, n))
                    e[p, q] = 1.0
                    worst = max(
                        worst,
                        float(np.max(np.abs(matrix_unit(gs, table, p, q) - e))),
                    )
    return worst < 1e-8, f"max reconstruction error {worst:.2e}"


def check_negative_submatrix(cfg) -> Tuple[bool, str]:
    n = cfg.n
    ok = True
    for alpha in _alphas(cfg.alpha):
        for sym in (indicator_symbol(0.7), make_gp(3, alpha), poly_t_symbol([0.5, 0.25])):
            seq = gamma_sequence(sym, n, alpha, max(4, n))
            for xi in range(-n + 1, 0):
                ok = ok and negative_submatrix_check(seq, xi)
    return ok, "negative blocks equal leading submatrices of mirrored blocks"


def check_tail(cfg) -> Tuple[bool, str]:
    ok = True
    details = []
    for alpha in _alphas(cfg.alpha):
        seq = gamma_sequence(indicator_symbol(0.5), cfg.n, alpha, 60)
        dev = tail_deviation(seq, 60)
        ok = ok and dev < 1e-6
        details.append(f"{dev:.1e}")
    seq1 = gamma_sequence(indicator_symbol(0.5), 1, 0.0, 20)
    for xi in range(0, 21):
        want = 0.25 ** (xi + 1)
        ok = ok and abs(tail_deviation(seq1, xi) - want) <= 1e-14 * want
    return ok, f"deviations at frequency 60: {', '.join(details)}"


def check_state_two_paths(cfg) -> Tuple[bool, str]:
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    worst = 0.0
    for alpha in _alphas(cfg.alpha):
        sym = poly_t_symbol(list(rng.uniform(-1.0, 1.0, size=4)))
        seq = gamma_sequence(sym, n, alpha, 6)
        for _ in range(20):
            xi = int(rng.integers(-n + 1, 7))
            d = min(n + xi, n)
            u = rng.normal(size=d) + 1j * rng.normal(size=d)
            u /= np.linalg.norm(u)
            s = finite_state(xi, u)
            v1 = eval_state(s, seq)
            v2 = eval_state_integral(xi, u, sym, n, alpha)
            worst = max(worst, abs(v1 - v2))
    return worst < 1e-12, f"max disagreement {worst:.2e}"


def check_coincidence_and_witness(cfg) -> Tuple[bool, str]:
    n = max(cfg.n, 2)
    ok = True
    for alpha in _alphas(cfg.alpha):
        s1, s2 = coincidence_pair(n, alpha)
        for sym in (indicator_symbol(0.5), make_gp(2, alpha), poly_t_symbol([0.3, 0.4, -0.1])):
            d1 = eval_state_integral(s1.xi, s1.u, sym, n, alpha)
            d2 = eval_state_integral(s2.xi, s2.u, sym, n, alpha)
            ok = ok and abs(d1 - d2) < 1e-10
        w = closure_gap_witness(n, alpha, 4)
        ok = ok and eval_state(s1, w) == 0.0 and eval_state(s2, w) == 1.0
        try:
            separate(s1, s2, n, alpha)
            ok = False
        except NotSeparableError:
            pass
    return ok, "documented pair agrees on generators; explicit witness gives (0, 1)"


def check_separation(cfg) -> Tuple[bool, str]:
    n = max(min(cfg.n, 3), 2)
    ok = True
    for alpha in _alphas(cfg.alpha):
        e0 = np.eye(n)[0]
        e1 = np.eye(n)[1]
        pairs = [
            (finite_state(0, e0), finite_state(0, e1)),
            (finite_state(0, e0), finite_state(2, e0)),
            (finite_state(-1, np.eye(n - 1)[0] if n > 1 else [1.0]), finite_state(1, e1)),
            (limit_state(), finite_state(1, e0)),
        ]
        for s1, s2 in pairs:
            _, vals = separate(s1, s2, n, alpha)
            ok = ok and abs(vals[0] - vals[1]) > 1e-8
    return ok, "representative state pairs separated with gap > 1e-8"


CHECKS: List[Tuple[str, Callable]] = [
    ("gamma-ratio inequalities", check_gamma_inequalities),
    ("beta kernel", check_beta_kernel),
    ("weighted orthogonality", check_orthogonality),
    ("beta-moment identity", check_moment_identity),
    ("orthonormal entries", check_jacobi_fn_orthonormal),
    ("sup bound dominance", check_sup_bound),
    ("sequence basics", check_gamma_basics),
    ("antitriangular profile", check_antitriangular),
    ("structurally zero blocks", check_zero_blocks),
    ("matrix-unit reconstruction", check_matrix_units),
    ("negative-frequency submatrix", check_negative_submatrix),
    ("scalar-limit tail", check_tail),
    ("state evaluation two paths", check_state_two_paths),
    ("coincidence pair & witness", check_coincidence_and_witness),
    ("pure-state separation", check_separation),
]


def run_all(cfg) -> List[CheckResult]:
    results = []
    for name, fn in CHECKS:
        try:
            status, detail = fn(cfg)
        except Exception as exc:  # a crashed check is a failed check
            results.append(CheckResult(name, "fail", f"raised {exc!r}"))
            continue
        if status == SKIP:
            results.append(CheckResult(name, "skip", detail))
        else:
            results.append(CheckResult(name, "pass" if status else "fail", detail))
    return results
