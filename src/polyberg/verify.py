"""The package's invariant checks, each implemented once.

Every measurement takes its grid as arguments and returns the values it
measured; the caller asserts its own bound.  `polyberg verify` runs them
on the small grid of its command line: run_all calls each check of
CHECKS, one function that holds its grid, bound and detail text, with
the order n, the weight exponents and a fresh random.Random(seed), and
the check returns (ok, detail), ok None for a skip.  The acceptance and
unit tests run the same measurements on their own grids.  A measurement
that samples takes a random.Random and draws value by value (uniform,
randrange, choice, gauss), so each caller chooses its own draws and a
`verify` process never loads numpy.random, whose bit generators import
hashlib and OpenSSL.  A measurement that reads NaN anywhere is NaN, so
its check fails: the running maxima go through _worse and the running
minima through _lesser, because max(0.0, nan) is 0.0 and min(inf, nan)
is inf.  The sup-bound check is skipped when the weight exponent is not
positive, because no bound of that shape is established there.
"""

from __future__ import annotations

import math
import random
from functools import reduce
from itertools import zip_longest
from typing import List, NamedTuple, Optional

import numpy as np

from . import special_fn
from .gammaseq import (
    block_order,
    frequencies,
    gamma_matrix,
    gamma_sequence,
    spectral_norm,
    tail_deviation,
)
from .generators import (UNIT_ERROR_MAX, antitriangular_report, generator_block,
                         matrix_unit_errors)
from .integration import entry_block, weighted_product_integral
from .jacobi import (MAX_MOMENT_DEGREE, JacobiParams, check_alpha, jac_fn_eval, jac_sup_bound,
                     q_coeffs_int)
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
from .symbols import indicator_symbol, make_gp, poly_t_symbol, sup_abs


def _worse(worst: float, value: float) -> float:
    """max(worst, value), NaN once either is NaN."""
    return value if value > worst or math.isnan(value) else worst


def _lesser(least: float, value: float) -> float:
    """min(least, value), NaN once either is NaN."""
    return value if value < least or math.isnan(value) else least


# --- special functions and Jacobi polynomials -------------------------------


def gamma_ratio_violations(rng: random.Random, draws: int) -> int:
    """Number of random (z, a, k) points at which the Wendel bound or the
    binomial bound fails."""
    points = [(rng.uniform(1e-6, 100.0), rng.uniform(1e-6, 10.0), rng.randrange(31))
              for _ in range(draws)]
    return sum(
        not (special_fn.wendel_bound_holds(z, a) and special_fn.binom_bound_holds(z, k))
        for z, a, k in points
    )


def beta_asymmetry(rng: random.Random, draws: int, lo: float, hi: float) -> float:
    """Largest |B(x, y) - B(y, x)| / B(x, y) over random x, y in [lo, hi]."""
    worst = 0.0
    for _ in range(draws):
        x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
        bxy = special_fn.beta(x, y)
        worst = _worse(worst, abs(bxy - special_fn.beta(y, x)) / bxy)
    return worst


def incomplete_beta_drop(p: float, q: float, points: int) -> float:
    """Largest decrease of x -> I_x(p, q) between neighbouring points of
    an even grid on [0, 1]."""
    xs = np.linspace(0.0, 1.0, points)
    vals = [special_fn.reg_incomplete_beta(float(x), p, q) for x in xs]
    return float(np.max(-np.diff(vals)))


def _exact_pair_integral(alpha: float, b: int, p: int, q: int) -> float:
    (up, dp), (uq, dq) = q_coeffs_int(alpha, b, p), q_coeffs_int(alpha, b, q)
    conv = np.convolve(np.array(up, dtype=object), np.array(uq, dtype=object))
    return weighted_product_integral(conv.tolist(), alpha, b, den=dp * dq)


def orthogonality_deviation(alphas, betas, degrees: int, pair_integral=_exact_pair_integral):
    """Largest |<Q_p, Q_q> - delta_pq h_p| over p <= q < degrees, with the
    closed-form squared norm h_p = Gamma(p+a+1) Gamma(p+b+1) /
    ((2p+a+b+1) Gamma(p+a+b+1) p!).  pair_integral(alpha, b, p, q) is the
    weighted inner product, by default from the exact integer coefficients."""
    lg = special_fn.log_gamma
    worst = 0.0
    for alpha in alphas:
        for b in betas:
            for p in range(degrees):
                for q in range(p, degrees):
                    want = 0.0
                    if p == q:
                        want = math.exp(
                            lg(p + alpha + 1) + lg(p + b + 1.0)
                            - math.log(2 * p + alpha + b + 1)
                            - lg(p + alpha + b + 1) - lg(p + 1.0)
                        )
                    worst = _worse(worst, abs(pair_integral(alpha, b, p, q) - want))
    return worst


def moment_identity_deviation(alphas, xis, degrees: int) -> float:
    """Largest relative deviation of the exact integral of t^m Q_m against
    the (alpha, xi) weight from B(xi+m+1, alpha+m+1), over m < degrees."""
    worst = 0.0
    for alpha in alphas:
        for xi in xis:
            for m in range(degrees):
                nums, den = q_coeffs_int(alpha, xi, m)
                val = weighted_product_integral([0] * m + list(nums), alpha, xi, den=den)
                want = special_fn.beta(xi + m + 1.0, alpha + m + 1.0)
                worst = _worse(worst, abs(val - want) / want)
    return worst


def identity_deviation(one, alphas, xis, order: int) -> float:
    """Largest entry of |entry_block(one, alpha, xi, order) - I| over the
    alphas and xis, for a symbol `one` equal to 1."""
    return reduce(
        _worse,
        (float(np.max(np.abs(entry_block(one, alpha, xi, order) - np.eye(order))))
         for alpha in alphas for xi in xis),
        0.0,
    )


def sup_bound_ratio(cases, points: int) -> float:
    """Largest ratio of max |f| on an even grid of [0, x] to
    jac_sup_bound, over (alpha, beta, m, x) cases."""
    worst = 0.0
    for alpha, b, m, x in cases:
        params = JacobiParams(alpha, b, m)
        seen = np.max(np.abs(jac_fn_eval(params, np.linspace(0.0, x, points))))
        worst = _worse(worst, float(seen / jac_sup_bound(params, x)))
    return worst


# --- sequences and generator blocks -----------------------------------------


def sequence_basics(n: int, alpha: float, xi_max: int, ca, cb, lin_xis) -> tuple:
    """(identity deviation of the unit symbol's blocks up to xi_max,
    linearity deviation of the polynomial symbols with coefficients ca
    and cb at lin_xis, whether those blocks are exactly symmetric,
    smallest eigenvalue and largest ||block|| - sup|a| of two nonnegative
    symbols up to xi_max)."""
    # g_0 = 1 is integrated; a constant and the unit polynomial give I as such
    seq = gamma_sequence(make_gp(0, alpha), n, alpha, xi_max)
    id_dev = reduce(_worse, (
        float(np.max(np.abs(b - np.eye(b.shape[0]))))
        for b in map(seq.block, frequencies(n, xi_max))
    ), 0.0)
    combo = [x + y for x, y in zip_longest(ca, cb, fillvalue=0.0)]
    lin_dev, symmetric = 0.0, True
    for xi in lin_xis:
        ga, gb, gc = (gamma_matrix(poly_t_symbol(c), n, alpha, xi) for c in (ca, cb, combo))
        lin_dev = _worse(lin_dev, float(np.max(np.abs(ga + gb - gc))))
        symmetric = symmetric and all(np.array_equal(g, g.T) for g in (ga, gb, gc))
    min_eig, norm_excess = math.inf, -math.inf
    for sym in (indicator_symbol(0.5), poly_t_symbol([0.2, -0.4, 0.3])):
        s2, sup = gamma_sequence(sym, n, alpha, xi_max), sup_abs(sym)
        for b in map(s2.block, frequencies(n, xi_max)):
            min_eig = _lesser(min_eig, float(np.linalg.eigvalsh(b).min()))
            norm_excess = _worse(norm_excess, spectral_norm(b) - sup)
    return id_dev, lin_dev, symmetric, min_eig, norm_excess


def antitriangular_failures(n: int, alpha: float, blocks) -> list:
    """The (xi, p) among blocks whose generator block lacks the
    (p - |xi|)-antitriangular profile; past the last antidiagonal,
    2d - 2, that profile is the exactly zero block."""
    return [
        (xi, p) for xi, p in blocks
        if not antitriangular_report(generator_block(n, alpha, xi, p), p - abs(xi)).holds
    ]


def random_antitriangular_generators(n: int, rng, symmetric: bool = False) -> list:
    """Generator family G_0..G_{n-1} with the structure nu_table needs:
    G_p vanishes above antidiagonal n - 1 + p, its entries on it have
    magnitudes in [0.2, 1.2) (a numerically meaningful 'nonzero'), and
    those below are uniform in [-1, 1].  rng is a random.Random or a
    seed."""
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    gs = []
    for p in range(n):
        g = np.zeros((n, n))
        for j in range(n):
            for k in range(j if symmetric else 0, n):
                s = j + k
                if s > n - 1 + p:
                    g[j, k] = rng.uniform(-1.0, 1.0)
                elif s == n - 1 + p:
                    g[j, k] = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.2)
                if symmetric:
                    g[k, j] = g[j, k]
        gs.append(g)
    return gs


def matrix_unit_error(families) -> float:
    """Worst matrix-unit reconstruction error over generator families."""
    return reduce(_worse, (float(matrix_unit_errors(gs).max()) for gs in families), 0.0)


SUBMATRIX_TOL = 1e-12


def negative_submatrix_failures(n: int, alpha: float, symbols, xi_max: int) -> list:
    """(symbol index, xi) of the negative frequencies at which the block of
    the sequence, the leading submatrix of the mirrored block, differs by
    more than SUBMATRIX_TOL from gamma_matrix at xi, computed on its own
    order."""
    failures = []
    for i, sym in enumerate(symbols):
        seq = gamma_sequence(sym, n, alpha, xi_max)
        failures += [
            (i, xi) for xi in range(-n + 1, 0)
            if not np.max(np.abs(seq.block(xi) - gamma_matrix(sym, n, alpha, xi))) <= SUBMATRIX_TOL
        ]
    return failures


def scalar_limit_tail(s: float, n: int, alpha: float, xis) -> tuple:
    """Tail deviations {xi: ||Gamma_xi - limit I||} of the indicator of
    [0, s] at xis, and, at n = 1 and alpha = 0, the largest relative
    deviation from the closed form (s^2)^(xi+1) (None otherwise)."""
    seq = gamma_sequence(indicator_symbol(s), n, alpha, max(xis))
    devs = {xi: tail_deviation(seq, xi) for xi in xis}
    closed = None
    if n == 1 and alpha == 0.0:
        closed = reduce(_worse, (abs(dev - (s * s) ** (xi + 1)) / (s * s) ** (xi + 1)
                                 for xi, dev in devs.items()), 0.0)
    return devs, closed


# --- pure states -------------------------------------------------------------


def two_path_gap(rng: random.Random, n: int, alphas, terms: int, draws: int) -> float:
    """Largest |eval_state - eval_state_integral|: per alpha, a random
    polynomial symbol with `terms` coefficients in [-1, 1] and `draws`
    random states at frequencies -n+1..6."""
    worst = 0.0
    for alpha in alphas:
        sym = poly_t_symbol([rng.uniform(-1.0, 1.0) for _ in range(terms)])
        seq = gamma_sequence(sym, n, alpha, 6)
        for _ in range(draws):
            xi = rng.randrange(-n + 1, 7)
            u = np.array([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(block_order(n, xi))])
            u /= np.linalg.norm(u)
            v1 = eval_state(finite_state(xi, u), seq)
            worst = _worse(worst, abs(v1 - eval_state_integral(xi, u, sym, n, alpha)))
    return worst


def coincidence_gap(n: int, alpha: float, symbols) -> float:
    """Largest |sigma_1(a) - sigma_2(a)| over symbols for the documented
    coincidence pair, through the integral representation."""
    s1, s2 = coincidence_pair(n, alpha)
    return reduce(_worse, (
        abs(eval_state_integral(s1.xi, s1.u, a, n, alpha)
            - eval_state_integral(s2.xi, s2.u, a, n, alpha))
        for a in symbols
    ), 0.0)


def closure_gap_witness_check(n: int, alpha: float, xi_max: int) -> tuple:
    """(witness, its values on the coincidence pair, whether separate
    refuses the pair)."""
    s1, s2 = coincidence_pair(n, alpha)
    w = closure_gap_witness(n, alpha, xi_max)
    try:
        separate(s1, s2, n, alpha)
        refused = False
    except NotSeparableError:
        refused = True
    return w, (eval_state(s1, w), eval_state(s2, w)), refused


def separation_gaps(n: int, alpha: float, pairs) -> tuple:
    """(smallest |sigma_1 - sigma_2| on the witnesses of the separated
    pairs, (xi_1, xi_2) of each pair that separate refused)."""
    min_gap, refused = math.inf, []
    for s1, s2 in pairs:
        try:
            _, vals = separate(s1, s2, n, alpha)
            min_gap = _lesser(min_gap, abs(vals[0] - vals[1]))
        except NotSeparableError:
            refused.append((s1.xi, s2.xi))
    return min_gap, refused


# --- the command-line grid ---------------------------------------------------


def _gamma_ratio(n, alphas, rng):
    return gamma_ratio_violations(rng, 1000) == 0, "1000 random (z, a, k) points"


def _beta_kernel(n, alphas, rng):
    asym, drop = beta_asymmetry(rng, 200, 0.05, 40.0), incomplete_beta_drop(2.5, 3.5, 101)
    return asym <= 1e-12 and drop <= 1e-14, "Beta symmetry + incomplete-beta monotonicity"


def _orthogonality(n, alphas, rng):
    w = orthogonality_deviation(alphas, range(5), 6)
    return w < 1e-10, f"max deviation {w:.2e}"


def _beta_moment(n, alphas, rng):
    w = moment_identity_deviation(alphas, range(5), 6)
    return w < 1e-10, f"max relative deviation {w:.2e}"


def _orthonormal_entries(n, alphas, rng):
    # the unit generator g_0 of each alpha (see sequence_basics)
    w = reduce(_worse, (identity_deviation(make_gp(0, a), [a], range(6), 4) for a in alphas), 0.0)
    return w < 1e-12, f"max deviation from identity {w:.2e}"


def _sup_bound(n, alphas, rng):
    alphas = [a for a in alphas if a > 0.0]
    if not alphas:
        return None, "unproven for alpha <= 0; skipped"
    cases = ((rng.choice(alphas), float(rng.randrange(41)), rng.randrange(6),
              rng.uniform(0.05, 0.95)) for _ in range(30))
    return sup_bound_ratio(cases, 1500) <= 1 + 1e-12, "grid sup dominated by the closed-form bound"


def _sequence_basics(n, alphas, rng):
    res = [sequence_basics(n, alpha, 8, [0.3, -0.2, 0.5], [0.1, 0.4], (-n + 1, 0, 3))
           for alpha in alphas]
    ok = all(i < 1e-12 and lin < 1e-12 and sym and eig >= -1e-10 and over <= 1e-9
             for i, lin, sym, eig, over in res)
    return ok, f"identity dev {max(r[0] for r in res):.1e}; linearity, symmetry, PSD, norm bound"


def _antitriangular(n, alphas, rng):
    n = min(n, 4)
    blocks = [(xi, p) for xi in range(-n + 1, 4)
              for p in range(2 * block_order(n, xi) - 1 + abs(xi))]
    bad = [f for alpha in alphas for f in antitriangular_failures(n, alpha, blocks)]
    return not bad, "generating-symbol blocks have the expected antidiagonal profile"


def _zero_blocks(n, alphas, rng):
    n = min(n, 4)
    blocks = [(xi, 2 * block_order(n, xi) - 1 + abs(xi) + i)
              for xi in range(-n + 1, 4) for i in range(5)]
    bad = [f for alpha in alphas for f in antitriangular_failures(n, alpha, blocks)]
    return not bad, f"{len(blocks) * len(alphas)} blocks past the last antidiagonal are exactly zero"


def _matrix_units(n, alphas, rng):
    w = matrix_unit_error(random_antitriangular_generators(m, rng)
                          for m in range(2, min(n, 5) + 1) for _ in range(10))
    return w < UNIT_ERROR_MAX, f"max reconstruction error {w:.2e}"


def _negative_submatrix(n, alphas, rng):
    bad = [f for alpha in alphas for f in negative_submatrix_failures(
        n, alpha, (indicator_symbol(0.7), make_gp(3, alpha), poly_t_symbol([0.5, 0.25])),
        max(4, n))]
    return not bad, "negative blocks equal leading submatrices of mirrored blocks"


def _tail(n, alphas, rng):
    # the top of the indicator's moment guard, where its decay starts late
    # enough for every alpha up to ALPHA_MAX
    xi = MAX_MOMENT_DEGREE - 2 * (n - 1)
    devs = [scalar_limit_tail(0.5, n, alpha, [xi])[0][xi] for alpha in alphas]
    closed = scalar_limit_tail(0.5, 1, 0.0, range(21))[1]
    return (all(dev < 1e-6 for dev in devs) and closed <= 1e-14,
            f"deviations at frequency {xi}: {', '.join(f'{dev:.1e}' for dev in devs)}")


def _two_paths(n, alphas, rng):
    w = two_path_gap(rng, n, alphas, 4, 20)
    return w < 1e-12, f"max disagreement {w:.2e}"


def _coincidence(n, alphas, rng):
    n, oks = max(n, 2), []
    for alpha in alphas:
        syms = (indicator_symbol(0.5), make_gp(2, alpha), poly_t_symbol([0.3, 0.4, -0.1]))
        _, vals, refused = closure_gap_witness_check(n, alpha, 4)
        oks.append(coincidence_gap(n, alpha, syms) < 1e-10 and vals == (0.0, 1.0) and refused)
    return all(oks), "documented pair agrees on generators; explicit witness gives (0, 1)"


def _separation(n, alphas, rng):
    n = max(min(n, 3), 2)
    e0, e1 = np.eye(n)[:2]
    pairs = [
        (finite_state(0, e0), finite_state(0, e1)),
        (finite_state(0, e0), finite_state(2, e0)),
        (finite_state(-1, np.eye(n - 1)[0]), finite_state(1, e1)),
        (limit_state(), finite_state(1, e0)),
    ]
    res = [separation_gaps(n, alpha, pairs) for alpha in alphas]
    return (all(gap > 1e-8 and not refused for gap, refused in res),
            "representative state pairs separated with gap > 1e-8")


CHECKS = [
    ("gamma-ratio inequalities", _gamma_ratio),
    ("beta kernel", _beta_kernel),
    ("weighted orthogonality", _orthogonality),
    ("beta-moment identity", _beta_moment),
    ("orthonormal entries", _orthonormal_entries),
    ("sup bound dominance", _sup_bound),
    ("sequence basics", _sequence_basics),
    ("antitriangular profile", _antitriangular),
    ("structurally zero blocks", _zero_blocks),
    ("matrix-unit reconstruction", _matrix_units),
    ("negative-frequency submatrix", _negative_submatrix),
    ("scalar-limit tail", _tail),
    ("state evaluation two paths", _two_paths),
    ("coincidence pair & witness", _coincidence),
    ("pure-state separation", _separation),
]


# the largest order every check serves: the scalar-limit tail misses its
# bound from n = 9 (alpha = 240) and the moment guard refuses from n = 65
N_MAX = 8
# the largest alpha every check serves at n <= N_MAX: the scalar-limit
# tail at n = 8 reaches its bound from alpha = 244.1
ALPHA_MAX = 240.0

CheckResult = NamedTuple("CheckResult", [("name", str), ("status", str), ("detail", str)])


def run_all(n: int, alpha: Optional[float], seed: int) -> List[CheckResult]:
    """Every check on the command-line grid: order n, the one weight
    exponent alpha (0, 1 and 2.5 when None) and the seed of every
    sampling check, each check drawing from its own random.Random(seed).
    The antitriangular profile and the zero blocks read
    antitriangular_report, as every structure test does.  Refuses an n
    outside 1..N_MAX and an alpha that is not a finite number above -1
    or that lies above ALPHA_MAX before any check."""
    if not 1 <= n <= N_MAX:
        raise ValueError(f"verify serves n from 1 to {N_MAX}, got {n}")
    if alpha is not None:
        check_alpha(alpha)
        if alpha > ALPHA_MAX:
            raise ValueError(f"verify serves alpha up to {ALPHA_MAX:g}, got {alpha}")
    alphas = [alpha] if alpha is not None else [0.0, 1.0, 2.5]
    results = []
    for name, check in CHECKS:
        try:
            ok, detail = check(n, alphas, random.Random(seed))
            status = "skip" if ok is None else "pass" if ok else "fail"
        except Exception as exc:  # a crashed check is a failed check
            status, detail = "fail", f"raised {exc!r}"
        results.append(CheckResult(name, status, detail))
    return results
