"""Symbol construction, evaluation, limits, and JSON codec."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyberg.gammaseq import gamma_sequence, tail_deviation
from polyberg.jacobi import MAX_MOMENT_DEGREE, q_coeffs_int
from polyberg.symbols import (
    const_symbol,
    eval_at_t,
    indicator_symbol,
    make_gp,
    poly_t_symbol,
    sampled_symbol,
    sup_abs,
    symbol_from_json_obj,
    symbol_to_json_obj,
)


EPS = float(np.finfo(float).eps)


def _gp_coeffs(g):
    nums, den = q_coeffs_int(g.alpha, 0.0, g.p)
    return tuple(c / den for c in nums)


def test_make_gp_frozen_cases():
    g0 = make_gp(0, 1.7)
    assert _gp_coeffs(g0) == (1.0,) and g0.limit == 1.0
    g1 = make_gp(1, 0.0)
    assert _gp_coeffs(g1) == (-1.0, 2.0) and g1.limit == 1.0
    g2 = make_gp(2, 0.0)
    assert _gp_coeffs(g2) == (1.0, -6.0, 6.0) and g2.limit == 1.0
    assert g2.coeffs is None


def test_make_gp_limit_closed_form():
    # boundary value equals the generalized binomial C(alpha+p, p)
    assert make_gp(1, 1.0).limit == pytest.approx(2.0)
    assert make_gp(2, 2.0).limit == pytest.approx(6.0)
    assert make_gp(3, 0.5).limit == pytest.approx((1.5 * 2.5 * 3.5) / 6.0)


def test_make_gp_limit_is_the_binomial_rounded_once():
    # C(alpha + p, p) = prod_{i=1..p} (alpha + i) / i, exact, rounded once;
    # p = 100 is past the degree of the exact coefficients, and pointwise
    # evaluation reaches it within its bound
    want = Fraction(1)
    for i in range(1, 101):
        want *= (Fraction(1, 2) + i) / i
    g = make_gp(100, 0.5)
    assert g.limit == float(want)
    assert abs(eval_at_t(g, 1.0) - g.limit) <= _gp_bound(g)


def test_make_gp_refuses_indices_beyond_the_moment_guard():
    # every block of a higher g_p within the moment guard is zero
    assert make_gp(MAX_MOMENT_DEGREE, 0.5).p == MAX_MOMENT_DEGREE
    for p in (-1, MAX_MOMENT_DEGREE + 1, 10**9, 2.5):
        with pytest.raises(ValueError, match=f"generator index {p} outside"):
            make_gp(p, 0.5)
    # an integral float is its integer
    assert make_gp(2.0, 0.5) is make_gp(2, 0.5)


@pytest.mark.parametrize("build", [
    lambda: const_symbol(float("nan")),
    lambda: const_symbol(complex(1.0, float("inf"))),
    lambda: poly_t_symbol([1.0, float("-inf")]),
    lambda: poly_t_symbol([1e308, 1e308]),  # finite coefficients, infinite limit
    lambda: sampled_symbol([(0.0, 1.0), (0.5, float("nan"))]),
    lambda: sampled_symbol([(0.0, 1.0), (float("nan"), 2.0), (0.5, 3.0)]),
])
def test_symbols_refuse_non_finite_values(build):
    with pytest.raises(ValueError, match="finite|strictly increasing"):
        build()


def test_indicator_eval():
    ind = indicator_symbol(0.5)
    assert eval_at_t(ind, 0.2) == 1.0
    assert eval_at_t(ind, 0.3) == 0.0
    assert ind.limit == 0.0
    with pytest.raises(ValueError):
        indicator_symbol(1.0)
    with pytest.raises(ValueError):
        indicator_symbol(0.0)


def test_poly_eval_and_limit():
    a = poly_t_symbol([-1.0, 2.0])
    assert eval_at_t(a, 0.75) == pytest.approx(0.5)
    assert a.limit == pytest.approx(1.0)
    assert const_symbol(3.5).limit == 3.5
    assert const_symbol(2 + 1j).limit == 2 + 1j


def test_poly_limit_is_t1_value():
    for coeffs in ([0.2, -0.3, 0.8], [1.0], [0.5, 0.5, 0.5, -2.0]):
        a = poly_t_symbol(coeffs)
        for k in range(1, 7):
            t = 1.0 - 10.0**-k
            dev = abs(eval_at_t(a, t) - a.limit)
            assert dev < 10.0 ** (-k + 1) * (1 + sum(abs(c) for c in coeffs))


def test_make_gp_agrees_with_poly_eval():
    # against the exact monomial sum at each float t
    ts = np.linspace(0.0, 0.999, 100)
    for p, alpha in [(0, 0.0), (3, 0.5), (5, 2.5), (7, 1.0)]:
        g = make_gp(p, alpha)
        mine = np.array([eval_at_t(g, float(t)) for t in ts])
        nums, den = q_coeffs_int(alpha, 0.0, p)
        ref = np.array([float(sum(c * Fraction(t) ** k for k, c in enumerate(nums)) / den)
                        for t in ts.tolist()])
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(mine - ref)) <= 1e-14 * scale


def _gp_bound(g):
    # the stated bound of jacobi.q_eval at beta = 0, where the supremum of
    # |g_p| is max(C(p + alpha, p), 1) and g_p(1) = C(p + alpha, p) its limit
    return EPS * (4 * (g.p + 1) + (g.p + 1) ** 2 / 4) * max(g.limit, 1.0)


# dyadic exponents in (-1, 8]: multiples of 2^-6
dyadic_alphas = st.integers(-63, 512).map(lambda k: k / 64)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, MAX_MOMENT_DEGREE), dyadic_alphas,
       st.floats(0.0, 1.0, exclude_max=True, allow_nan=False))
@example(12, 0.5, 0.999)
@example(20, -0.5, 0.999)
@example(30, 2.75, 0.999)
@example(MAX_MOMENT_DEGREE, -0.46875, 1e-6)
def test_generator_values_match_mpmath(p, alpha, t):
    # g_p(t) = P_p^(alpha, 0)(2t - 1) in mpmath at 40 digits.  The square
    # term of the bound is the ends' sensitivity to the rounded recurrence
    # coefficients: 0.16 (p + 1)^2 eps was measured near t = 0 at p = 180,
    # alpha = -0.47.  The first three examples read 3.6079989, 0.0399 and
    # 1382528 off the float monomials, for 3.6079990, 0.0358 and 2331.14.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = float(mpmath.jacobi(p, alpha, 0, 2 * mpmath.mpf(t) - 1))
    g = make_gp(p, alpha)
    assert abs(eval_at_t(g, t) - want) <= _gp_bound(g)


def test_sampled_symbol():
    a = sampled_symbol([(0.0, 1.0), (0.5, 2.0), (0.9, 0.0)])
    assert eval_at_t(a, 0.25) == pytest.approx(1.5)
    assert eval_at_t(a, 0.95) == pytest.approx(0.0)  # constant beyond last node
    assert a.limit == 0.0
    b = sampled_symbol([(0.0, 1.0), (0.5, 2.0 - 1j)])
    assert b.limit == 2.0 - 1j
    with pytest.raises(ValueError):
        sampled_symbol([(0.5, 1.0), (0.5, 2.0)])
    with pytest.raises(ValueError):
        sampled_symbol([(0.0, 1.0), (1.0, 2.0)])


def test_sampled_limit_is_the_last_value():
    # the table is constant past its last knot; limit 0.5 here gave a
    # tail deviation of 1.5 at xi = 150, where it should tend to 0
    with pytest.raises(ValueError, match="not the last value"):
        symbol_from_json_obj({"kind": "sampled", "points": [[0, 1], [0.5, -1]], "limit": 0.5})
    a = sampled_symbol([(0, 1), (0.5, -1)])
    assert a.limit == -1.0
    assert tail_deviation(gamma_sequence(a, 2, 0.0, 150), 150) < 1e-12
    c = symbol_from_json_obj({"kind": "sampled", "points": [[0, 1], [0.5, [2, -1]]],
                              "limit": [2, -1]})
    assert c.limit == 2 - 1j
    assert symbol_from_json_obj({"kind": "sampled", "points": [[0, 1], [0.5, -1]]}) == a


def test_eval_at_t_reads_a_scalar_t_as_an_array_does():
    # at a scalar t a complex table lost its imaginary part (0.75 for
    # 0.75 - 0.5j at t = 0.25); a real table still gives a float
    for points in ([(0.0, 1 + 1j), (0.5, 0.5 - 2j)], [(0.0, 1.0), (0.5, -0.5)]):
        a = sampled_symbol(points)
        for t in (0.0, 0.25, 0.5, 0.7):
            got = eval_at_t(a, t)
            assert got == eval_at_t(a, np.array([t]))[0]
            assert type(got) is type(points[1][1])


def test_sup_abs():
    assert sup_abs(const_symbol(-3.0)) == 3.0
    assert sup_abs(indicator_symbol(0.3)) == 1.0
    # -(t - 1/2)^2 + 1/4: max |.| on [0,1] is 1/4 at the interior critical point
    a = poly_t_symbol([0.0, 1.0, -1.0])
    assert sup_abs(a) == pytest.approx(0.25)
    assert sup_abs(poly_t_symbol([0.5, -2.0])) == pytest.approx(1.5)


def test_sup_abs_meets_a_fine_grid():
    # |a| peaks where d/dt |a|^2 = 2 Re(a' conj(a)) vanishes; for complex
    # coefficients that is not where a' does.  The first case read 1.3762
    # from the roots of a' alone.
    grid = np.linspace(0.0, 1.0, 200001)
    rng = np.random.default_rng(11)
    cases = [[-0.931 - 0.945j, -0.936 - 0.914j, 0.940 + 0.261j, 0.035 + 0.550j]]
    for m in range(1, 11):
        re = rng.uniform(-1, 1, m + 1)
        cases += [re, re + 1j * rng.uniform(-1, 1, m + 1)]
    for coeffs in cases:
        sym = poly_t_symbol(coeffs)
        seen = np.max(np.abs(eval_at_t(sym, grid)))
        assert seen <= sup_abs(sym) * (1 + 1e-14)
        assert sup_abs(sym) == pytest.approx(seen, rel=1e-9)
    assert sup_abs(poly_t_symbol(cases[0])) == pytest.approx(1.722455, abs=1e-6)


# a real polynomial whose critical point near t = 0.99993 np.roots placed
# 5e-12 off the real axis when the critical-point polynomial was complex;
# sup_abs then read 0.7589136245732027, the value at t = 1
UNDERESTIMATED = (1.1977782919893354e-11, 0.853313957148699, 4.9517698508430886e-05,
                  -4.6126645421364553e-07, 9.105494725593587e-15, -2.4266922391593602e-15,
                  0.0012903291175773868, 8.12319687656696e-12, 7.335918301536188e-15,
                  -0.09573971814543934, 1.9653110062415813e-13)


def test_sup_abs_finds_a_critical_point_near_one():
    sym = poly_t_symbol(UNDERESTIMATED)
    seen = np.max(np.abs(eval_at_t(sym, np.linspace(0.0, 1.0, 200001))))
    assert seen * (1 - 1e-12) <= sup_abs(sym) <= seen * (1 + 1e-9)


# coefficients of mixed magnitudes, down to 1e-16 of the largest, as in
# the case above
mixed = st.tuples(st.floats(-1.0, 1.0, allow_nan=False), st.integers(0, 16)).map(
    lambda c: c[0] * 10.0 ** -c[1])


@st.composite
def polynomials(draw):
    m = draw(st.integers(0, 10))
    coeffs = draw(st.lists(mixed, min_size=m + 1, max_size=m + 1))
    if draw(st.booleans()):
        imag = draw(st.lists(mixed, min_size=m + 1, max_size=m + 1))
        coeffs = [complex(re, im) for re, im in zip(coeffs, imag)]
    return coeffs


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.one_of(polynomials().map(poly_t_symbol),
                 st.builds(make_gp, st.integers(0, MAX_MOMENT_DEGREE), dyadic_alphas)))
@example(poly_t_symbol(UNDERESTIMATED))
@example(make_gp(30, 2.75))
@example(make_gp(40, -0.9))
@example(make_gp(64, 7.5))
def test_sup_abs_is_never_below_a_grid(sym):
    # 400 drawn symbols: real and complex polynomials of degree <= 10 and
    # generators up to the moment guard, about 3 s
    seen = np.max(np.abs(eval_at_t(sym, np.linspace(0.0, 1.0, 20001))))
    assert sup_abs(sym) >= seen * (1 - 1e-12)


def test_json_round_trip():
    cases = [
        const_symbol(2.0),
        const_symbol(1 - 2j),
        indicator_symbol(0.5),
        poly_t_symbol([0.1, -0.2, 0.3]),
        make_gp(3, 0.5),
        sampled_symbol([(0.0, 1.0), (0.5, -1.0)]),
    ]
    for a in cases:
        back = symbol_from_json_obj(symbol_to_json_obj(a))
        assert back == a


def test_jacobi_g_json_contextual_alpha():
    back = symbol_from_json_obj({"kind": "jacobi_g", "p": 2}, alpha=0.0)
    assert back == make_gp(2, 0.0)
    with pytest.raises(ValueError):
        symbol_from_json_obj({"kind": "jacobi_g", "p": 2})


def test_json_bad_input():
    with pytest.raises(ValueError):
        symbol_from_json_obj({"kind": "nope"})
    with pytest.raises(ValueError):
        symbol_from_json_obj([1, 2, 3])


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 2.75, 7.5])
def test_generator_sup_is_the_larger_end_value(alpha):
    # g_p(t) = P_p^(alpha, 0)(2t - 1) in mpmath on a grid that is dense near
    # both ends, where |g_p| peaks (Szego, Theorem 7.32.1).  Read off the
    # float monomials, g_30 at alpha = 2.75 gave 661248 for a supremum of
    # 3079, and g_64 at alpha = 7.5 gave 1.3e32 for 4.0e9.
    mpmath = pytest.importorskip("mpmath")
    grid = [(1 - mpmath.cos(mpmath.pi * i / 64)) / 2 for i in range(65)]
    for p in (0, 1, 12, 20, 30, 40, 64, 100, 192):
        seen = max(abs(mpmath.jacobi(p, alpha, 0, 2 * t - 1)) for t in grid)
        assert sup_abs(make_gp(p, alpha)) == pytest.approx(float(seen), rel=1e-13), p
