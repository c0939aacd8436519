"""The integer exact path against the Fraction construction it replaced.

Coefficients, normalization constants and moments must be the same
rationals, and every float read off them the same float, bit for bit:
both paths round the same exact number once.  poly_t blocks, which come
from the Jacobi matrix, are held to their stated bound instead.
"""

import math
import sys

import numpy as np
import pytest

from conftest import (
    moment_fraction,
    norm_product_fraction,
    norm_sq_fraction,
    poly_entry_fraction,
    q_coeffs_fraction,
)
from polyberg import integration
from polyberg.gammaseq import gamma_matrix
from polyberg.integration import (
    MAX_MOMENT_DEGREE,
    beta_entry,
    norm_product,
    weighted_product_integral,
)
from polyberg.jacobi import norm_coeff_sq_exact, q_coeffs_exact
from polyberg.purestates import finite_state, limit_state, separate, separation
from polyberg.symbols import const_symbol, indicator_symbol, make_gp, poly_t_symbol

ALPHAS = (0.0, 0.3, 0.5, 1.0, 2.5, -0.5)
EPS = float(np.finfo(float).eps)
# a poly_t entry of degree m is within JACOBI_BOUND m eps sum|c_k| of the
# exact integral (integration module docstring)
JACOBI_BOUND = 8
IDX = 7
POLY_DEGREE = 3
GP = 5


def xis(degree: int) -> tuple:
    # the last frequency puts the top moment degree exactly at the guard
    return (0, 1, 7, 60, 120, MAX_MOMENT_DEGREE - 2 * IDX - degree)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_coefficients_and_norms_equal_fractions(alpha):
    for xi in xis(0):
        for m in range(IDX + 1):
            assert q_coeffs_exact(alpha, xi, m) == q_coeffs_fraction(alpha, xi, m)
            assert norm_coeff_sq_exact(alpha, xi, m) == norm_sq_fraction(alpha, xi, m)
    assert q_coeffs_exact(alpha, 0.0, GP) == q_coeffs_fraction(alpha, 0.0, GP)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_moments_equal_fractions(alpha):
    for degree in range(MAX_MOMENT_DEGREE + 1):
        # the monomial t^degree: the moment itself, rounded once
        got = weighted_product_integral([0] * degree + [1], alpha, 0)
        assert got == float(moment_fraction(degree, alpha))


@pytest.mark.parametrize("alpha", ALPHAS)
def test_norm_product_equals_fractions(alpha):
    for xi in xis(0):
        for j in range(IDX + 1):
            for k in range(j, IDX + 1):
                assert norm_product(alpha, xi, j, k) == norm_product_fraction(alpha, xi, j, k)


def _fraction_block(coeffs, alpha, xi, d, kks):
    # entries from the Fraction construction, each rounded once, with the
    # norm products kks[j, k]; complex coefficients are integrated in their
    # real and imaginary parts
    cplx = any(isinstance(c, complex) for c in coeffs)
    block = np.zeros((d, d), dtype=complex if cplx else float)
    for j in range(d):
        for k in range(j, d):
            kk = kks[j, k]
            re = poly_entry_fraction([c.real for c in coeffs], alpha, xi, j, k)
            if cplx:
                im = poly_entry_fraction([c.imag for c in coeffs], alpha, xi, j, k)
                block[j, k] = block[k, j] = kk * complex(re, im)
            else:
                block[j, k] = block[k, j] = kk * re
    return block


@pytest.mark.parametrize("alpha", ALPHAS)
def test_entries_equal_fractions(alpha):
    # generator and constant blocks bit for bit; poly_t blocks, from the
    # Jacobi matrix, within the bound of the integration module docstring
    rng = np.random.default_rng(int(10 * alpha) + 7)
    real = poly_t_symbol(rng.uniform(-1, 1, POLY_DEGREE + 1))
    cplx = poly_t_symbol(rng.uniform(-1, 1, POLY_DEGREE + 1)
                         + 1j * rng.uniform(-1, 1, POLY_DEGREE + 1))
    # each symbol up to the frequency that puts the top moment degree of
    # its n = 8 block, 2 (d - 1) + xi + degree, at the guard
    cases = [(real, real.coeffs, POLY_DEGREE), (cplx, cplx.coeffs, POLY_DEGREE),
             (make_gp(GP, alpha), q_coeffs_fraction(alpha, 0.0, GP), GP)]
    consts = [const_symbol(-1.25), const_symbol(0.5 - 0.75j)]
    d = IDX + 1
    for sym, coeffs, degree in cases:
        exact = sym.kind == "jacobi_g"
        bound = JACOBI_BOUND * degree * EPS * sum(abs(c) for c in coeffs)
        for xi in xis(degree):
            # each block from a stack over two frequencies (one at xi = 0)
            lo = max(xi - 1, 0)
            kks = {(j, k): norm_product_fraction(alpha, xi, j, k)
                   for j in range(d) for k in range(j, d)}
            want = _fraction_block(coeffs, alpha, xi, d, kks)
            got = integration.entry_blocks(sym, alpha, range(lo, xi + 1), d)[xi - lo]
            assert got.dtype == want.dtype
            if exact:
                assert got.tobytes() == want.tobytes()
            else:
                assert np.max(np.abs(got - want)) <= bound
            for j in range(d):
                for k in range(j, d):
                    entry = beta_entry(sym, alpha, xi, j, k)
                    assert entry == want[j, k] if exact else abs(entry - want[j, k]) <= bound
    for xi in xis(GP):
        lo = max(xi - 1, 0)
        for sym in consts:
            got = integration.entry_blocks(sym, alpha, range(lo, xi + 1), d)[xi - lo]
            assert np.array_equal(got, sym.value * np.eye(d))


@pytest.mark.parametrize("alpha", (0.1, 0.375))
def test_generator_blocks_past_degree_64_equal_fractions(alpha):
    # the closed form needs no coefficients of g_p, so p may exceed
    # jacobi.MAX_DEGREE; the reference convolves the coefficients from
    # their formula.  Entry (j, k) is a structural zero iff xi + j + k < p.
    p, d = 70, 3
    sym, coeffs = make_gp(p, alpha), q_coeffs_fraction(alpha, 0.0, p)
    for xi in (p - 3, p + 5):
        kks = {(j, k): norm_product_fraction(alpha, xi, j, k)
               for j in range(d) for k in range(j, d)}
        want = _fraction_block(coeffs, alpha, xi, d, kks)
        got = integration.entry_block(sym, alpha, xi, d)
        assert got.tobytes() == want.tobytes()
        for j in range(d):
            for k in range(d):
                assert (got[j, k] == 0.0) == (xi + j + k < p), (xi, j, k)


def test_moment_guard_is_kept():
    # beta_entry reads the block of order k + 1, whose top moment degree is
    # 2 k + |xi|, whatever j is.  A poly_t or constant block forms no
    # moment and answers past the guard.
    poly = poly_t_symbol([0.5] * GP + [1.0])
    edge = MAX_MOMENT_DEGREE - 2 * IDX
    assert math.isfinite(beta_entry(poly, 1.0, edge + 1, 0, IDX))
    assert beta_entry(const_symbol(1.0), 1.0, edge + 1, 0, IDX) == 0.0
    # a generator's degree does not count: it is refused at that same edge
    gp = make_gp(GP, 1.0)
    assert math.isfinite(beta_entry(gp, 1.0, edge, 0, IDX))
    with pytest.raises(ValueError, match=f"moment degree {MAX_MOMENT_DEGREE + 1} "):
        beta_entry(gp, 1.0, edge + 1, 0, IDX)
    with pytest.raises(ValueError):
        integration.weighted_product_integral([1.0, 2.0], 0.5, MAX_MOMENT_DEGREE)


def _caches():
    # every loaded polyberg module, so that a cache is covered wherever it lives
    for mod in [m for name, m in sorted(sys.modules.items()) if name.startswith("polyberg.")]:
        for val in vars(mod).values():
            if hasattr(val, "cache_info") and val.__module__ == mod.__name__:
                yield f"{mod.__name__}.{val.__name__}", val


def test_caches_stay_bounded_over_many_thresholds():
    thresholds = np.linspace(0.05, 0.95, 500)
    for i, s in enumerate(thresholds):
        gamma_matrix(indicator_symbol(float(s)), 2, 0.25 * (i % 4), i % 7)
        for name, fn in _caches():
            info = fn.cache_info()
            assert info.maxsize is not None, name
            assert info.currsize <= info.maxsize, name
    assert math.isclose(
        beta_entry(indicator_symbol(0.5), 0.0, 1, 0, 0), 1.0 / 16.0, rel_tol=1e-13
    )


def test_every_separation_cache_is_read_again():
    # each pair is separated twice: a same-frequency pair with p = q, one
    # with p != q, a pair of two frequencies and a limit pair.  A cache of
    # the separation path that none of these reads again only costs.
    caches = [(name, fn) for name, fn in _caches()
              if name.startswith(("polyberg.generators.", "polyberg.purestates."))
              and fn.cache_info().maxsize is not None]
    for _, fn in caches:
        fn.cache_clear()
    r = 1.0 / math.sqrt(2.0)
    pairs = [
        (finite_state(1, [1.0, 0.0]), finite_state(1, [0.0, 1.0])),
        (finite_state(1, [r, r]), finite_state(1, [r, -r])),
        (finite_state(0, [1.0, 0.0]), finite_state(1, [0.0, 1.0])),
        (limit_state(), finite_state(1, [1.0, 0.0])),
    ]
    recipes = [separation(s1, s2, 2, 0.375)[2] for s1, s2 in pairs for _ in range(2)]
    assert [sorted(r) for r in recipes[::2]] == [
        ["plan"], ["combination", "plans"], ["plan"], ["symbol"]
    ]
    assert caches
    assert [name for name, fn in caches if fn.cache_info().hits == 0] == []


def test_generator_caches_stay_bounded_over_many_separations():
    # off-diagonal witnesses need the plans (p, q) and (q, p), diagonal ones
    # (p, p); every (alpha, xi) brings new plans and the two blocks of its
    # family, so 52 alphas pass the 4096 generator blocks.  Dyadic alphas
    # keep the exact integers short; no other test uses these.
    r = 1.0 / math.sqrt(2.0)
    states = (([1.0, 0.0], [0.0, 1.0]), ([r, r], [r, -r]))
    caches = {name: fn for name, fn in _caches()
              if name.startswith(("polyberg.generators.", "polyberg.purestates."))}
    limits = {name: fn.cache_info().maxsize for name, fn in caches.items()}
    misses = {name: fn.cache_info().misses for name, fn in caches.items()}
    for alpha in (np.arange(52) + 0.5) / 8.0:
        for xi in range(40):
            for u, v in states:
                separate(finite_state(xi, u), finite_state(xi, v), 2, float(alpha))
            for name, fn in caches.items():
                info = fn.cache_info()
                assert info.maxsize is not None, name
                assert info.currsize <= info.maxsize, name
    for name in (
        "polyberg.generators._plan_grid",
        "polyberg.generators.generator_block",
        "polyberg.purestates._unit_witness",
    ):
        assert caches[name].cache_info().misses - misses[name] > limits[name], name
