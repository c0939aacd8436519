"""Entry-integral tests: exact moments, dispatch paths."""

import numpy as np
import pytest

from conftest import shifted_jacobi_oracle, weighted_quadrature
from polyberg import integration
from polyberg.gammaseq import gamma_sequence
from polyberg.integration import beta_entry, entry_blocks, norm_product, weighted_product_integral
from polyberg.symbols import (
    const_symbol,
    indicator_symbol,
    make_gp,
    poly_t_symbol,
    sampled_symbol,
)
from polyberg.verify import identity_deviation


def moment(k, alpha, xi_abs):
    # integral of t^(k + xi_abs) (1-t)^alpha over [0, 1]: the monomial t^k
    # against the (alpha, xi_abs) weight
    return weighted_product_integral([0] * k + [1], alpha, xi_abs)


def test_moment_frozen_values():
    assert moment(0, 0.0, 0) == 1.0
    assert moment(0, 0.0, 1) == 0.5
    assert moment(1, 1.0, 0) == pytest.approx(1.0 / 6.0, rel=1e-15)


def test_moment_degree_guard_and_domain():
    with pytest.raises(ValueError):
        moment(100, 0.0, 100)
    with pytest.raises(ValueError):
        moment(0, 0.0, -1)
    with pytest.raises(ValueError):
        moment(0, -1.0, 0)


def test_moment_matches_quadrature(rng):
    for _ in range(30):
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.5]))
        k = int(rng.integers(0, 12))
        xi = int(rng.integers(0, 8))
        got = moment(k, alpha, xi)
        want = weighted_quadrature(alpha, k + xi, lambda t: np.ones_like(t))
        assert abs(got - want) <= 1e-13 * want


def test_const_symbol_gives_identity():
    assert identity_deviation(const_symbol(1.0), (0.0, 0.5, 1.0, 2.5), range(9), 6) < 1e-12


def test_unit_polynomial_symbol_gives_identity():
    # on the Jacobi-matrix path the unit polynomial gives I as it stands
    assert identity_deviation(poly_t_symbol([1.0]), (0.0, 0.5, 1.0, 2.5), range(9), 6) < 1e-12


@pytest.mark.parametrize("v", [2.0, -1.5, 0.0, 0.25 - 0.75j, -0.5 + 1j])
def test_constants_are_degree_zero_polynomials_and_flat_tables(v):
    # one kernel: the three spellings of a constant give the same bytes,
    # +0.0 off the diagonal also for v < 0 (v * I made those -0.0)
    for alpha, d in ((-0.5, 1), (0.5, 4), (2.75, 8)):
        blocks = [entry_blocks(a, alpha, range(40), d).tobytes() for a in (
            const_symbol(v), poly_t_symbol([v]), sampled_symbol([(0.0, v), (0.5, v)]))]
        assert blocks[0] == blocks[1] == blocks[2], (alpha, d)


def test_a_sequence_makes_one_kernel_call_per_kind(monkeypatch):
    calls = []
    real = integration._float_blocks

    def counted(a, alpha, xis, d):
        calls.append((a.kind, xis, d))
        return real(a, alpha, xis, d)

    monkeypatch.setattr(integration, "_float_blocks", counted)
    for a in (const_symbol(-2.0), poly_t_symbol([0.5, -1.0, 0.25]), indicator_symbol(0.7),
              sampled_symbol([(0.0, 1.0), (0.3, 0.2), (0.8, 0.6)])):
        gamma_sequence(a, 4, 0.5, 30)
    assert calls == [(kind, range(31), 4) for kind in ("const", "poly_t", "indicator", "sampled")]


def test_entry_frozen_examples():
    assert beta_entry(make_gp(1, 0.0), 0.0, 0, 0, 1) == pytest.approx(
        1.0 / np.sqrt(3.0), rel=1e-14
    )
    assert beta_entry(indicator_symbol(0.5), 0.0, 1, 0, 0) == pytest.approx(
        1.0 / 16.0, rel=1e-13
    )


def test_entry_symmetry_is_exact(rng):
    a = poly_t_symbol(list(rng.uniform(-1, 1, size=5)))
    for xi in (-2, 0, 3):
        for j in range(4):
            for k in range(4):
                assert beta_entry(a, 1.5, xi, j, k) == beta_entry(a, 1.5, xi, k, j)


def test_entry_linearity(rng):
    ca = list(rng.uniform(-1, 1, size=4))
    cb = list(rng.uniform(-1, 1, size=6))
    a, b = poly_t_symbol(ca), poly_t_symbol(cb)
    lam = 0.7311
    combo = poly_t_symbol(
        [lam * x + y for x, y in zip(ca + [0.0, 0.0], cb)]
    )
    for alpha in (0.0, 2.5):
        for xi in (-1, 0, 4):
            for j, k in [(0, 0), (1, 2), (3, 3)]:
                lhs = beta_entry(combo, alpha, xi, j, k)
                rhs = lam * beta_entry(a, alpha, xi, j, k) + beta_entry(
                    b, alpha, xi, j, k
                )
                assert abs(lhs - rhs) < 1e-13


def test_complex_const_scaling():
    c = 2.0 - 1.5j
    a = const_symbol(c)
    for xi, j, k in [(0, 0, 0), (2, 1, 1), (1, 0, 2)]:
        got = beta_entry(a, 0.5, xi, j, k)
        want = c * beta_entry(const_symbol(1.0), 0.5, xi, j, k)
        assert abs(got - want) < 1e-14


def test_entry_against_independent_quadrature(rng):
    # recurrence-oracle polynomials + substitution quadrature
    for _ in range(15):
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.5]))
        xi = int(rng.integers(0, 5))
        j = int(rng.integers(0, 4))
        k = int(rng.integers(0, 4))
        coeffs = list(rng.uniform(-1, 1, size=4))
        a = poly_t_symbol(coeffs)

        def f(t):
            poly = np.zeros_like(t)
            for d, c in enumerate(coeffs):
                poly = poly + c * t**d
            return (
                poly
                * shifted_jacobi_oracle(alpha, xi, j, t)
                * shifted_jacobi_oracle(alpha, xi, k, t)
            )

        want = norm_product(alpha, xi, j, k) * weighted_quadrature(alpha, xi, f)
        got = beta_entry(a, alpha, xi, j, k)
        assert abs(got - want) < 1e-11


def test_exact_vs_sampled_quadrature_paths(rng):
    # polynomial symbol re-wrapped as a 2048-point sampled table
    coeffs = [0.3, -0.4, 0.25, 0.1, -0.2, 0.15, 0.05]
    a = poly_t_symbol(coeffs)
    ts = np.linspace(0.0, 1.0, 2049)[:-1]
    vals = np.zeros_like(ts)
    for d, c in enumerate(coeffs):
        vals += c * ts**d
    b = sampled_symbol(list(zip(ts, vals)))
    for alpha in (0.0, 1.0):
        for xi in (-1, 0, 3):
            for j, k in [(0, 0), (0, 2), (1, 3)]:
                exact = beta_entry(a, alpha, xi, j, k)
                sampled = beta_entry(b, alpha, xi, j, k)
                assert abs(exact - sampled) < 1e-6


def test_entry_domain_errors():
    with pytest.raises(ValueError):
        beta_entry(const_symbol(1.0), -1.0, 0, 0, 0)
    with pytest.raises(ValueError):
        beta_entry(const_symbol(1.0), 0.0, 0, -1, 0)
