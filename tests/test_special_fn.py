"""Gamma/Beta kernel tests against stdlib, closed-form and mpmath oracles."""

import math
import random

import mpmath
import numpy as np
import pytest

from polyberg import special_fn
from polyberg.special_fn import (
    beta,
    binom_bound_holds,
    binom_real,
    log_gamma,
    reg_incomplete_beta,
    wendel_bound_holds,
)
from polyberg.verify import beta_asymmetry, gamma_ratio_violations, incomplete_beta_drop


def test_log_gamma_trivial_points():
    assert abs(log_gamma(1.0)) < 1e-13
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13
    # Gamma(1/2) = sqrt(pi)
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-13


def test_log_gamma_matches_stdlib_over_range():
    zs = np.logspace(-3, 6, 4000)
    for z in zs:
        ref = math.lgamma(z)
        assert abs(log_gamma(float(z)) - ref) <= 1e-13 * max(1.0, abs(ref))


def test_log_gamma_domain():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            log_gamma(bad)


def test_beta_closed_forms():
    assert abs(beta(1.0, 1.0) - 1.0) < 1e-14
    assert abs(beta(2.0, 1.0) - 0.5) < 1e-14
    assert abs(beta(2.0, 2.0) - 1.0 / 6.0) < 1e-15


def test_beta_symmetry():
    assert beta_asymmetry(random.Random(0), 300, 0.02, 50.0) <= 1e-12


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_beta_asymmetry_draws_the_pairs_of_the_per_pair_loop(seed, monkeypatch):
    # pair i is the i-th (x, y) of a loop drawing x, then y, and the
    # stream is left where that loop leaves it, so a check that draws
    # after it from the same Random reads the same numbers
    ref = random.Random(seed)
    want = [(ref.uniform(0.05, 40.0), ref.uniform(0.05, 40.0)) for _ in range(200)]
    seen = []
    monkeypatch.setattr(special_fn, "beta", lambda x, y: seen.append((x, y)) or beta(x, y))
    rng = random.Random(seed)
    beta_asymmetry(rng, 200, 0.05, 40.0)
    assert seen[::2] == want
    assert rng.getstate() == ref.getstate()


def test_beta_domain():
    with pytest.raises(ValueError):
        beta(0.0, 1.0)
    with pytest.raises(ValueError):
        beta(1.0, -2.0)


def test_incomplete_beta_endpoints_and_uniform():
    assert reg_incomplete_beta(0.0, 2.3, 4.5) == 0.0
    assert reg_incomplete_beta(1.0, 2.3, 4.5) == 1.0
    assert abs(reg_incomplete_beta(0.25, 1.0, 1.0) - 0.25) < 1e-12


def test_incomplete_beta_closed_forms(rng):
    # I_x(p, 1) = x^p and I_x(1, q) = 1 - (1-x)^q
    for _ in range(200):
        x = float(rng.uniform(0.01, 0.99))
        p = float(rng.uniform(0.2, 20.0))
        assert abs(reg_incomplete_beta(x, p, 1.0) - x**p) < 1e-12
        assert abs(reg_incomplete_beta(x, 1.0, p) - (1.0 - (1.0 - x) ** p)) < 1e-12


def test_incomplete_beta_vs_quadrature_oracle():
    # composite Simpson on a dense grid, fully independent of the
    # continued fraction
    p, q = 2.5, 3.5
    ts = np.linspace(0.0, 0.4, 20001)
    f = ts ** (p - 1.0) * (1.0 - ts) ** (q - 1.0)
    simpson = (ts[1] - ts[0]) / 3.0 * (
        f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()
    )
    want = simpson / beta(p, q)
    assert abs(reg_incomplete_beta(0.4, p, q) - want) < 1e-9


def test_incomplete_beta_symmetry_and_monotonicity(rng):
    for _ in range(100):
        x = float(rng.uniform(0.01, 0.99))
        p, q = rng.uniform(0.3, 15.0, size=2)
        lhs = reg_incomplete_beta(x, float(p), float(q))
        rhs = 1.0 - reg_incomplete_beta(1.0 - x, float(q), float(p))
        assert abs(lhs - rhs) < 1e-12
    assert incomplete_beta_drop(3.2, 1.7, 500) <= 1e-14


def test_incomplete_beta_matches_mpmath(rng):
    with mpmath.workdps(30):
        for _ in range(1000):
            x = float(rng.uniform(0.0, 1.0))
            p, q = (float(v) for v in rng.uniform(0.2, 40.0, size=2))
            want = float(mpmath.betainc(p, q, 0, x, regularized=True))
            assert abs(reg_incomplete_beta(x, p, q) - want) <= 1e-13, (x, p, q)


@pytest.mark.parametrize("x, p, q", [(0.9999, 10001.0, 1.5), (0.99999, 100001.0, 1.5)])
def test_incomplete_beta_large_parameters_within_stated_bound(x, p, q):
    # both lie past the switch, so the fraction evaluates J = 1 - I; the
    # docstring's bound is 2 eps (S + 16) J plus the roundings of 1 - x
    # and 1 - J
    with mpmath.workdps(40):
        want = mpmath.betainc(p, q, 0, x, regularized=True)
    assert x > (p + 1.0) / (p + q + 2.0)
    eps = np.finfo(float).eps
    size = (abs(math.lgamma(p + q)) + abs(math.lgamma(p)) + abs(math.lgamma(q))
            + abs(p * math.log(x)) + abs(q * math.log1p(-x)))
    bound = 2.0 * eps * (size + 16.0) * float(1 - want) + 2.0 * eps
    assert abs(reg_incomplete_beta(x, p, q) - float(want)) <= bound


def test_incomplete_beta_refuses_at_the_term_cap(monkeypatch):
    monkeypatch.setattr(special_fn, "MAX_FRACTION_TERMS", 3)
    with pytest.raises(ValueError, match="not converged after 3 terms"):
        reg_incomplete_beta(0.5, 20.0, 20.0)


def test_incomplete_beta_domain():
    with pytest.raises(ValueError):
        reg_incomplete_beta(-0.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        reg_incomplete_beta(1.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        reg_incomplete_beta(0.5, 0.0, 1.0)


def test_wendel_bound_examples():
    assert wendel_bound_holds(1.0, 1.0)
    assert wendel_bound_holds(10.0, 0.5)
    assert wendel_bound_holds(0.1, 3.0)


def test_binom_bound_examples():
    assert binom_bound_holds(1.0, 0)
    # C(5, 3) = 10 <= 125/6
    assert binom_real(5.0, 3) == pytest.approx(10.0)
    assert binom_bound_holds(2.0, 3)
    assert binom_bound_holds(0.5, 5)


def test_bound_grid():
    assert gamma_ratio_violations(random.Random(0), 1000) == 0
