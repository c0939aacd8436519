"""Indicator and sampled blocks against an mpmath reference.

The reference expands each entry in monomials, k_j k_k sum_m (Q_j Q_k)_m
E_(m+|xi|), with exact Jacobi coefficients and norm constants from the
Fraction oracles and the symbol moments E_m = integral of a(sqrt(t)) t^m
(1-t)^alpha over [0, 1] in mpmath at 80 digits.  The moments are summed
segment by segment of the symbol (the indicator's [0, s^2]; the sampled
table's flat ends and linear pieces), so the reference shares neither
the closed forms nor the split a = level + r of the package.  Indicator
blocks are also drawn by hypothesis (derandomized, 200 examples and two
fixed corners, about 2.5 s on a 2-vCPU machine, most of it in the
reference).
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import conv_exact, norm_sq_fraction, q_coeffs_fraction
from polyberg import integration
from polyberg.gammaseq import gamma_sequence
from polyberg.integration import MAX_MOMENT_DEGREE, beta_entry, entry_block, entry_blocks
from polyberg.symbols import SymbolSpec, indicator_symbol, sampled_symbol, sup_abs

DPS = 80
TOL = 1e-12

# (n, alpha, xi, s): the indicator cases of the accuracy baseline, the
# criterion-9 worst case up to its check frequency, each end of the
# frequency guard (2 (n - 1) + xi <= 192), and cuts near 1
INDICATOR_CASES = [
    (4, 2.5, 60, 0.9),
    (4, 2.5, 170, 0.9),
    (6, 1.0, 60, 0.9),
    (8, 1.0, 60, 0.9),
    (8, 0.5, 150, 0.95),
    (8, 0.25, 178, 0.98),
    (2, 0.0, 190, 0.99),
    (8, 1.75, -3, 0.733),
    (4, 0.0, 0, 0.3),
    (2, 0.0, 170, 0.9999),
    (2, 2.5, 170, 0.9999),
    (4, -0.5, 170, 0.99),
]
SAMPLED_LAST = (0.5, 0.98, 0.999)
SAMPLED_ALPHAS = (-0.5, 0.5, 2.25)
SAMPLED_XIS = (-3, 0, 60, 170)


def _segment_moments(alpha, x1, x2, top):
    """Integrals of t^m (1-t)^alpha over [x1, x2] for m <= top, by
    (m + alpha + 1) I_m = m I_(m-1) - [t^m (1-t)^(alpha+1)] from x1 to x2."""
    a1 = alpha + 1
    edge = [(1 - x) ** a1 for x in (x1, x2)]
    out = [(edge[0] - edge[1]) / a1]
    for m in range(1, top + 1):
        bracket = x2**m * edge[1] - x1**m * edge[0]
        out.append((m * out[-1] - bracket) / (m + a1))
    return out


def _symbol_moments(pieces, alpha, top):
    """E_0..E_top of a symbol given as [(x1, x2, A, B)]: a = A + B t on
    [x1, x2]."""
    out = [mpmath.mpf(0)] * (top + 1)
    for x1, x2, lin0, lin1 in pieces:
        seg = _segment_moments(alpha, x1, x2, top + 1)
        for m in range(top + 1):
            out[m] += lin0 * seg[m] + lin1 * seg[m + 1]
    return out


def _reference_block(pieces, alpha, xi, d):
    xi_abs = abs(xi)
    mom = _symbol_moments(pieces, mpmath.mpf(alpha), 2 * (d - 1) + xi_abs)
    coeffs = [q_coeffs_fraction(alpha, xi_abs, m) for m in range(d)]
    norms = [mpmath.sqrt(mpmath.mpf(f.numerator) / f.denominator)
             for f in (norm_sq_fraction(alpha, xi_abs, m) for m in range(d))]
    out = np.zeros((d, d), dtype=complex)
    for j in range(d):
        for k in range(j, d):
            pair = conv_exact(coeffs[j], coeffs[k])
            acc = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mom[m + xi_abs]
                              for m, c in enumerate(pair))
            out[j, k] = out[k, j] = complex(norms[j] * norms[k] * acc)
    return out


def _indicator_pieces(s):
    return [(mpmath.mpf(0), mpmath.mpf(s) ** 2, 1, 0)]


def _sampled_pieces(points):
    ts = [mpmath.mpf(t) for t, _ in points]
    vs = [mpmath.mpmathify(v) for _, v in points]
    pieces = [(mpmath.mpf(0), ts[0], vs[0], 0), (ts[-1], mpmath.mpf(1), vs[-1], 0)]
    for (t1, v1), (t2, v2) in zip(zip(ts, vs), zip(ts[1:], vs[1:])):
        slope = (v2 - v1) / (t2 - t1)
        pieces.append((t1, t2, v1 - slope * t1, slope))
    return pieces


def _table(t_last, imag=False):
    # eleven uneven knots from 0.03 to t_last, a smooth profile in t
    ts = t_last * (0.03 + 0.97 * np.linspace(0.0, 1.0, 11) ** 0.8)
    vs = 0.5 + 0.4 * np.cos(3.0 * ts) - 0.3 * ts**2
    if imag:
        vs = vs + 1j * (0.2 - 0.5 * np.sin(2.0 * ts))
    return [(float(t), complex(v) if imag else float(v)) for t, v in zip(ts, vs)]


def _check(a, pieces, n, alpha, xi):
    d = min(n + xi, n)
    with mpmath.workdps(DPS):
        want = _reference_block(pieces, alpha, xi, d)
    got = entry_block(a, alpha, xi, d)
    err = float(np.max(np.abs(got - want)))
    assert err <= TOL * max(1.0, sup_abs(a)), (a.kind, n, alpha, xi, err)
    return got


@pytest.mark.parametrize("n, alpha, xi, s", INDICATOR_CASES)
def test_indicator_blocks_match_mpmath(n, alpha, xi, s):
    got = _check(indicator_symbol(s), _indicator_pieces(s), n, alpha, xi)
    assert got.dtype == float


@pytest.mark.parametrize("alpha", SAMPLED_ALPHAS)
@pytest.mark.parametrize("t_last", SAMPLED_LAST)
def test_sampled_blocks_match_mpmath(t_last, alpha):
    points = _table(t_last)
    a = sampled_symbol(points)
    for xi in SAMPLED_XIS:
        got = _check(a, _sampled_pieces(points), 4, alpha, xi)
        assert got.dtype == float


def test_complex_sampled_block_matches_mpmath():
    points = _table(0.98, imag=True)
    a = sampled_symbol(points)
    for xi in (-2, 0, 60):
        got = _check(a, _sampled_pieces(points), 6, 0.5, xi)
        assert got.dtype == complex
        entry = beta_entry(a, 0.5, xi, 0, 1)
        assert isinstance(entry, complex) and abs(entry - got[0, 1]) <= 1e-14


def test_float_blocks_are_exactly_symmetric_and_agree_with_entries():
    a = sampled_symbol(_table(0.98))
    for sym in (indicator_symbol(0.81), a):
        block = entry_block(sym, 1.5, 7, 6)
        assert np.array_equal(block, block.T)
        for j in range(6):
            for k in range(6):
                assert math.isclose(beta_entry(sym, 1.5, 7, j, k), block[j, k],
                                    rel_tol=1e-13, abs_tol=1e-15)


def test_float_blocks_refuse_cut_too_close_to_one():
    # the closed forms hold at every cut below 1, however close; only a
    # symbol built around the constructors reaches 1
    with pytest.raises(ValueError, match="must lie in"):
        sampled_symbol([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ValueError, match=r"cut 1.0 must lie in \(0, 1\)"):
        entry_block(SymbolSpec(kind="sampled", points=((0.0, 0.0), (1.0, 1.0))), 0.5, 0, 3)
    # the largest double below 1, as a knot and as a cut s^2 = 1 - 2^-52
    top = float(np.nextafter(1.0, 0.0))
    points = [(0.0, 0.0), (top, 1.0)]
    for alpha, xi in ((0.5, 0), (-0.5, 170)):
        _check(sampled_symbol(points), _sampled_pieces(points), 3, alpha, xi)
        _check(indicator_symbol(top), _indicator_pieces(top), 3, alpha, xi)


@pytest.mark.parametrize("alpha", [1e200, 1e300])
def test_cut_anchor_refusal_names_the_kind_and_alpha(alpha):
    # the anchor's continued fraction does not converge at these alpha; its
    # refusal named reg_incomplete_beta and not alpha
    with pytest.raises(ValueError, match=rf"^sampled symbol: .* at alpha {alpha:g}$".replace("+", r"\+")):
        integration._cut_weights(np.array([0.25, 0.5]), alpha, "sampled")
    with pytest.raises(ValueError, match=rf"^indicator symbol: .* at alpha {alpha:g}$".replace("+", r"\+")):
        entry_block(indicator_symbol(0.5), alpha, 0, 3)


def _long_table():
    # 2048 even knots up to t = 1 - 1/2048: thousands of hinges, so the
    # kernel works through a range one frequency at a time
    ts = np.linspace(0.0, 1.0, 2049)[:-1]
    return [(float(t), float(0.5 + 0.4 * np.cos(3.0 * t) - 0.3 * t * t)) for t in ts]


def test_long_table_block_matches_mpmath():
    points = _long_table()
    _check(sampled_symbol(points), _sampled_pieces(points), 4, 0.5, 30)


# (symbol, alpha, top frequency, order)
STACK_CASES = [
    (indicator_symbol(0.81), -0.5, 40, 5),
    (indicator_symbol(0.6), 1.25, 40, 3),
    (sampled_symbol(_table(0.98)), 2.25, 59, 8),
    (sampled_symbol(_table(0.5, imag=True)), -0.5, 20, 6),
    (sampled_symbol(_long_table()), 0.5, 10, 4),
]


@pytest.mark.parametrize("a, alpha, top, d", STACK_CASES)
def test_stacked_blocks_equal_single_frequency_calls(a, alpha, top, d):
    stack = entry_blocks(a, alpha, range(top + 1), d)
    for xi in range(top + 1):
        assert np.array_equal(stack[xi], entry_block(a, alpha, xi, d)), xi


@pytest.mark.parametrize("a, n, xi_max", [
    (sampled_symbol(_long_table()), 8, 10),  # 2048 knots: one frequency a chunk
    (indicator_symbol(0.9999), 1, 2),  # a cut near 1
])
def test_sequence_working_set_stays_at_one_chunk(a, n, xi_max):
    # the kernel works through the range in chunks of frequencies sized to
    # the number of cuts, so the whole sequence peaks where a single block
    # does; a kernel holding the products of every frequency at once needs
    # xi_max + 1 times that
    tracemalloc.start()
    try:
        entry_block(a, 0.0, xi_max, n)
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        gamma_sequence(a, n, 0.0, xi_max)
        whole = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert whole < 1.25 * one, (whole, one)


EPS = float(np.finfo(float).eps)


@st.composite
def indicator_cases(draw):
    n = draw(st.integers(1, 8))
    alpha = draw(st.integers(-15, 127)) / 16
    s = draw(st.floats(0.05, 0.9999))
    return n, alpha, s, draw(st.integers(-n + 1, MAX_MOMENT_DEGREE - 2 * (n - 1)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(indicator_cases())
@example((7, -0.8125, 0.99904, 88))
@example((8, -0.9375, 0.9999, MAX_MOMENT_DEGREE - 14))
def test_drawn_indicator_blocks_match_mpmath(case):
    # n <= 8, dyadic alpha = k/16 in (-1, 8), s in (0.05, 0.9999) and xi
    # from -n + 1 up to the moment guard: the 1e-12 bound, exact symmetry,
    # PSD, norm at most sup|a| = 1, and a negative frequency's block the
    # leading submatrix of the order-n block at |xi|
    n, alpha, s, xi = case
    got = _check(indicator_symbol(s), _indicator_pieces(s), n, alpha, xi)
    assert np.array_equal(got, got.T)
    eigs = np.linalg.eigvalsh(got)
    assert eigs[0] >= -1e-13 and eigs[-1] <= 1.0 + 1e-13, eigs
    if xi < 0:
        d = n + xi
        assert np.array_equal(got, entry_block(indicator_symbol(s), alpha, -xi, n)[:d, :d])


@pytest.mark.parametrize("alpha, xi", [(0.5, 0), (-0.5, 30), (2.25, 120)])
@pytest.mark.parametrize("t", [0.2, 0.5, 0.9])
def test_steep_tables_keep_the_hinge_bound(t, alpha, xi):
    # a 0 -> 1 ramp 1e-3, 1e-6 and 1e-9 wide: the hinge sum loses about
    # eps sum_q |c_q|, c_q the changes of slope, and is not refused
    for width in (1e-3, 1e-6, 1e-9):
        points = [(0.0, 0.0), (t, 0.0), (t + width, 1.0)]
        ts, vs = np.array(points).T
        slopes = np.abs(np.diff(np.diff(vs) / np.diff(ts), prepend=0.0, append=0.0)).sum()
        a = sampled_symbol(points)
        with mpmath.workdps(DPS):
            want = _reference_block(_sampled_pieces(points), alpha, xi, 4)
        err = float(np.max(np.abs(entry_block(a, alpha, xi, 4) - want)))
        assert err <= 1e-12 * max(1.0, sup_abs(a)) + 2 * EPS * slopes, (width, err)
