"""Shifted-polynomial tests against the recurrence oracle, quadrature,
and the closed forms used by the boundary coincidence construction."""

import math
import random

import mpmath
import numpy as np
import pytest

from conftest import (
    exact_pair_integral,
    jac_fn_eval,
    jac_sup_bound,
    shifted_jacobi_oracle,
    sup_bound_ratio,
    weighted_quadrature,
)
from conftest import beta as beta_fn
from polyberg.jacobi import (
    JacobiParams,
    jac_norm_coeff,
    norm_coeff_sq_exact,
    q_coeffs_int,
    q_eval,
)
from polyberg.special_fn import log_gamma
from polyberg.verify import orthogonality_deviation


def test_q_coeffs_frozen_examples():
    def coeffs(alpha, beta, m):
        nums, den = q_coeffs_int(alpha, beta, m)
        return [c / den for c in nums]

    assert coeffs(3.0, 1.0, 0) == [1.0]
    assert coeffs(0.0, 0.0, 1) == [-1.0, 2.0]
    assert coeffs(0.0, 0.0, 2) == [1.0, -6.0, 6.0]


def test_q_coeffs_degree_guard():
    with pytest.raises(ValueError):
        q_coeffs_int(0.0, 0.0, 65)


def test_params_validation():
    with pytest.raises(ValueError):
        JacobiParams(-1.0, 0.0, 1)
    with pytest.raises(ValueError):
        JacobiParams(0.0, -1.5, 1)
    with pytest.raises(ValueError):
        JacobiParams(0.0, 0.0, -1)


def test_q_eval_frozen_points():
    assert q_eval(JacobiParams(0.0, 0.0, 2), 1.0) == pytest.approx(1.0, abs=1e-14)
    assert q_eval(JacobiParams(0.0, 0.0, 1), 0.5) == pytest.approx(0.0, abs=1e-15)
    assert q_eval(JacobiParams(5.0, 3.0, 0), 0.77) == 1.0


def test_q_eval_matches_recurrence_oracle_low_degree(rng):
    ts = np.linspace(0.0, 1.0, 211)
    for _ in range(40):
        alpha = float(rng.uniform(-0.9, 5.0))
        beta = float(rng.uniform(-0.9, 5.0))
        m = int(rng.integers(0, 11))
        mine = q_eval(JacobiParams(alpha, beta, m), ts)
        ref = shifted_jacobi_oracle(alpha, beta, m, ts)
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(mine - ref)) <= 1e-10 * scale


def test_q_eval_matches_recurrence_oracle_high_degree(rng):
    # both are three-term recurrences, so the error is measured against
    # the largest value, not the monomial coefficients' magnitudes
    ts = np.linspace(0.0, 1.0, 101)
    for _ in range(25):
        alpha = float(rng.uniform(-0.9, 9.0))
        beta = float(rng.uniform(-0.9, 9.0))
        m = int(rng.integers(10, 26))
        mine = q_eval(JacobiParams(alpha, beta, m), ts)
        ref = shifted_jacobi_oracle(alpha, beta, m, ts)
        assert np.max(np.abs(mine - ref)) <= 1e-13 * (np.max(np.abs(ref)) + 1.0)


def test_q_eval_at_alpha_plus_beta_minus_one():
    # the recurrence's c_1 is 0 / 0 there; Q_1 = (alpha + beta + 2) t - (beta + 1)
    # and Q_2 from its coefficients
    params = [JacobiParams(-0.25, -0.75, m) for m in (1, 2)]
    ts = np.linspace(0.0, 1.0, 9)
    assert np.allclose(q_eval(params[0], ts), ts - 0.25, rtol=0, atol=1e-15)
    nums, den = q_coeffs_int(-0.25, -0.75, 2)
    want = sum(c / den * ts**k for k, c in enumerate(nums))
    assert np.allclose(q_eval(params[1], ts), want, rtol=0, atol=1e-14)


def test_norm_coeff_closed_forms():
    for m in range(8):
        assert jac_norm_coeff(JacobiParams(0.0, 0.0, m)) == pytest.approx(
            math.sqrt(2 * m + 1), rel=1e-14
        )
    assert jac_norm_coeff(JacobiParams(0.0, 2.0, 1)) == pytest.approx(
        math.sqrt(5.0), rel=1e-14
    )
    assert jac_norm_coeff(JacobiParams(1.0, 0.0, 0)) == pytest.approx(
        math.sqrt(2.0), rel=1e-14
    )


def test_norm_coeff_refuses_a_beta_that_is_not_a_nonnegative_integer():
    for beta in (0.5, -0.5):
        with pytest.raises(ValueError, match="nonnegative integer beta"):
            jac_norm_coeff(JacobiParams(1.0, beta, 2))


def test_norm_coeff_gamma_vs_binomial_route():
    # for integer second exponent the squared constant equals
    # (2m+a+b+1) C(m+a+b, b) / C(m+b, b); cross-check against the
    # Gamma-function route
    for alpha in (0.0, 0.5, 1.0, 2.5):
        for b in range(0, 7):
            for m in range(0, 8):
                exact = float(norm_coeff_sq_exact(alpha, b, m))
                via_gamma = math.exp(
                    math.log(2 * m + alpha + b + 1)
                    + log_gamma(m + alpha + b + 1)
                    + log_gamma(m + 1.0)
                    - log_gamma(m + alpha + 1)
                    - log_gamma(m + b + 1.0)
                )
                assert abs(exact - via_gamma) <= 1e-12 * exact


def test_weighted_orthogonality_against_closed_form():
    worst = orthogonality_deviation((0.0, 1.0, 2.5), (0, 3), 6, exact_pair_integral)
    assert worst < 1e-10


def test_degree_vanishing():
    # integral against any lower-degree monomial vanishes exactly; the
    # degree-m moment is the Beta value
    from polyberg.integration import weighted_product_integral
    from polyberg.jacobi import q_coeffs_exact

    for alpha, b, m in [(0.0, 0, 4), (1.0, 2, 5), (2.5, 6, 3), (0.5, 1, 6)]:
        qc = q_coeffs_exact(alpha, float(b), m)
        for d in range(m):
            coeffs = [0.0] * d + [float(c) for c in qc]
            assert weighted_product_integral(coeffs, alpha, b) == 0.0
        coeffs = [0.0] * m + [float(c) for c in qc]
        got = weighted_product_integral(coeffs, alpha, b)
        want = beta_fn(b + m + 1.0, alpha + m + 1.0)
        assert abs(got - want) <= 1e-10 * want


def test_orthonormal_functions_unweighted():
    # dual oracle route: recurrence-evaluated polynomials integrated by
    # the substitution quadrature that absorbs the endpoint factor
    for alpha in (0.0, 0.5, 2.5):
        for b in (0, 2):
            for p in range(4):
                for q in range(p, 4):
                    kk = jac_norm_coeff(JacobiParams(alpha, b, p)) * jac_norm_coeff(
                        JacobiParams(alpha, b, q)
                    )
                    val = kk * weighted_quadrature(
                        alpha,
                        b,
                        lambda t: shifted_jacobi_oracle(alpha, b, p, t)
                        * shifted_jacobi_oracle(alpha, b, q, t),
                    )
                    assert abs(val - (1.0 if p == q else 0.0)) < 1e-10


def test_fn_closed_forms_low_degree():
    # the three explicit weighted functions behind the coincidence pair
    ts = np.linspace(0.01, 0.99, 57)
    for alpha in (0.0, 0.7, 2.5):
        f00 = jac_fn_eval(JacobiParams(alpha, 0.0, 0), ts)
        assert np.allclose(
            f00, math.sqrt(alpha + 1) * (1 - ts) ** (alpha / 2), rtol=1e-13
        )
        f10 = jac_fn_eval(JacobiParams(alpha, 0.0, 1), ts)
        assert np.allclose(
            f10,
            math.sqrt(alpha + 3) * (1 - ts) ** (alpha / 2) * ((alpha + 2) * ts - 1),
            rtol=1e-12,
            atol=1e-13,
        )
        f02 = jac_fn_eval(JacobiParams(alpha, 2.0, 0), ts)
        assert np.allclose(
            f02,
            math.sqrt((alpha + 3) * (alpha + 2) * (alpha + 1) / 2.0)
            * (1 - ts) ** (alpha / 2)
            * ts,
            rtol=1e-13,
        )


def test_fn_endpoint_domain():
    with pytest.raises(ValueError):
        jac_fn_eval(JacobiParams(-0.5, 0.0, 1), 1.0)
    with pytest.raises(ValueError):
        jac_fn_eval(JacobiParams(0.0, -0.5, 1), 0.0)
    # nonnegative half-exponents admit the endpoints
    assert jac_fn_eval(JacobiParams(0.0, 0.0, 1), 1.0) == pytest.approx(
        math.sqrt(3.0)
    )


def test_sup_bound_frozen_example_and_monotonicity():
    assert jac_sup_bound(JacobiParams(1.0, 0.0, 0), 0.5) == pytest.approx(4.0)
    b10 = jac_sup_bound(JacobiParams(1.0, 10.0, 0), 0.25)
    b20 = jac_sup_bound(JacobiParams(1.0, 20.0, 0), 0.25)
    assert b20 < b10


def test_sup_bound_refuses_nonpositive_alpha():
    with pytest.raises(ValueError):
        jac_sup_bound(JacobiParams(0.0, 0.0, 1), 0.5)
    with pytest.raises(ValueError):
        jac_sup_bound(JacobiParams(-0.5, 0.0, 1), 0.5)


def test_sup_bound_dominates_grid_scan():
    ts = np.linspace(0.0, 1.0, 10001)
    params = JacobiParams(1.0, 8.0, 2)
    x = 0.5
    seen = np.max(np.abs(jac_fn_eval(params, ts[ts <= x])))
    assert seen <= jac_sup_bound(params, x)


def test_sup_bound_dominates_random_tuples(rng):
    cases = (
        (float(rng.uniform(0.05, 6.0)), float(rng.integers(0, 41)), int(rng.integers(0, 6)),
         float(rng.uniform(0.05, 0.95)))
        for _ in range(50)
    )
    assert sup_bound_ratio(cases, 2000) <= 1 + 1e-12


@pytest.mark.parametrize("seed", [0, 7])
def test_sup_bound_dominates_and_matches_mpmath_on_the_check_draws(seed):
    # 30 cases at alpha 1 and 2.5, 1500 points each, drawn as `polyberg
    # verify` drew them; the function is checked against mpmath's Jacobi
    # polynomial on every 100th point, and the bound against its power form
    rng = random.Random(seed)
    cases = [(rng.choice([1.0, 2.5]), float(rng.randrange(41)), rng.randrange(6),
              rng.uniform(0.05, 0.95)) for _ in range(30)]
    assert sup_bound_ratio(cases, 1500) <= 1 + 1e-12
    with mpmath.workdps(30):
        for alpha, b, m, x in cases:
            params = JacobiParams(alpha, b, m)
            ts = np.linspace(0.0, x, 1500)[::100]
            norm = mpmath.sqrt((2 * m + alpha + b + 1) * mpmath.gamma(m + alpha + b + 1)
                               * mpmath.factorial(m)
                               / (mpmath.gamma(m + alpha + 1) * mpmath.gamma(m + b + 1)))
            want = [norm * (1 - mpmath.mpf(t)) ** (alpha / 2) * mpmath.mpf(t) ** (b / 2)
                    * mpmath.jacobi(m, alpha, b, 2 * mpmath.mpf(t) - 1) for t in ts.tolist()]
            scale = max(abs(w) for w in want)
            assert max(abs(f - w) for f, w in zip(jac_fn_eval(params, ts).tolist(), want)) \
                <= 1e-13 * scale, (alpha, b, m, x)
            bound = (mpmath.mpf(2 * m + alpha + b + 1) ** (m + 1 + (alpha + 1) / 2)
                     * mpmath.mpf(x) ** (b / 2))
            assert abs(jac_sup_bound(params, x) - bound) <= 1e-13 * bound, (alpha, b, m, x)


@pytest.mark.parametrize("alpha", [300.0, 1e4])
def test_sup_bound_dominates_past_the_float_range(alpha, rng):
    # base ** (m + 1 + (alpha + 1) / 2) raised OverflowError from alpha ~ 300
    cases = [(alpha, float(rng.integers(0, 41)), int(rng.integers(0, 6)),
              float(rng.uniform(0.05, 0.95))) for _ in range(30)]
    assert sup_bound_ratio(cases, 1500) <= 1
    assert jac_sup_bound(JacobiParams(alpha, 0.0, 5), 0.5) == math.inf


def test_sup_bound_agrees_with_its_power_form(rng):
    # wherever the power form stays in the float range, up to the roundings
    # of the square root and its square
    checked = 0
    for _ in range(2000):
        alpha = float(rng.choice([rng.uniform(0.01, 6.0), rng.uniform(6.0, 400.0)]))
        params = JacobiParams(alpha, float(rng.integers(0, 41)), int(rng.integers(0, 6)))
        x = float(rng.uniform(0.01, 0.99))
        base = 2 * params.m + alpha + params.beta + 1
        try:
            want = base ** (params.m + 1 + (alpha + 1) / 2.0) * x ** (params.beta / 2.0)
        except OverflowError:
            continue
        assert abs(jac_sup_bound(params, x) - want) <= 1e-13 * want
        checked += 1
    assert checked > 1000
