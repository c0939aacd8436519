"""Polynomial blocks on the Jacobi matrix, and the exact generator kernel
over ranges.

poly_t blocks are drawn by hypothesis (real and complex, degree <= 10,
n <= 8, dyadic alpha in (-1, 8), xi <= 150) and held to the bound of the
integration module docstring against the Fraction oracle of conftest.
The draws are derandomized, so the suite stays deterministic: 150 drawn
examples and three fixed corners, about 3 s on a 2-vCPU machine, most of
it in the oracle.  Generator blocks are drawn too (n <= 8, dyadic alpha,
xi from -n+1 up to the moment guard), 200 examples in about 0.5 s, for
their antitriangular structure.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    norm_product_fraction,
    poly_entry_fraction,
    poly_integral_fraction,
    q_coeffs_fraction,
)
from polyberg import jacobi
from polyberg.cli import main
from polyberg.generators import generator_block
from polyberg.gammaseq import gamma_matrix, gamma_sequence, spectral_norm
from polyberg.integration import MAX_MOMENT_DEGREE, entry_block, entry_blocks
from polyberg.symbols import const_symbol, indicator_symbol, make_gp, poly_t_symbol, sup_abs

EPS = float(np.finfo(float).eps)
TINY = 5e-324  # the smallest subnormal
# a poly_t entry of degree m is within JACOBI_BOUND m (eps sum|c_k| + TINY)
# of the exact integral (integration module docstring)
JACOBI_BOUND = 8
GUARD_MESSAGE = f"moment degree {MAX_MOMENT_DEGREE + 1} exceeds guard {MAX_MOMENT_DEGREE}"

unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def poly_cases(draw):
    m = draw(st.integers(0, 10))
    coeffs = draw(st.lists(unit, min_size=m + 1, max_size=m + 1))
    if draw(st.booleans()):
        imag = draw(st.lists(unit, min_size=m + 1, max_size=m + 1))
        coeffs = [complex(re, im) for re, im in zip(coeffs, imag)]
    alpha = draw(st.integers(-15, 127)) / 16
    return coeffs, draw(st.integers(1, 8)), alpha, draw(st.integers(0, 150))


def _oracle_block(coeffs, alpha, xi, d):
    # every entry the Fraction integral times the rounded norm product,
    # rounded once: within 2 eps of the entry, or half a subnormal
    cplx = any(isinstance(c, complex) for c in coeffs)
    block = np.zeros((d, d), dtype=complex if cplx else float)
    for j in range(d):
        for k in range(j, d):
            norm = Fraction(norm_product_fraction(alpha, xi, j, k))
            parts = [float(norm * poly_integral_fraction([getattr(c, part) for c in coeffs],
                                                         alpha, xi, j, k))
                     for part in (("real", "imag") if cplx else ("real",))]
            block[j, k] = block[k, j] = complex(*parts) if cplx else parts[0]
    return block


CORNERS = [
    # the largest order, frequency and degree, at both ends of alpha
    ([complex(0.9 - 0.1 * k, 0.05 * k - 0.3) for k in range(11)], 8, 127 / 16, 150),
    ([(-1.0) ** k * (1.0 - 0.09 * k) for k in range(11)], 8, -15 / 16, 150),
    ([0.25, -1.0], 8, 0.0, 149),
]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(poly_cases())
@example(CORNERS[0])
@example(CORNERS[1])
@example(CORNERS[2])
def test_poly_blocks_keep_their_properties(case):
    coeffs, n, alpha, xi = case
    sym = poly_t_symbol(coeffs)
    m = len(coeffs) - 1
    got = gamma_matrix(sym, n, alpha, xi)
    # the stated bound; the oracle's own rounding is inside it for m = 0
    bound = JACOBI_BOUND * max(m, 1) * (EPS * sum(abs(c) for c in coeffs) + TINY)
    assert np.max(np.abs(got - _oracle_block(sym.coeffs, alpha, xi, n))) <= bound
    assert np.array_equal(got, got.T)
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) > m
    assert np.all(got[band] == 0)
    assert spectral_norm(got) <= sup_abs(sym) * (1 + 1e-13)
    for lo in range(1, n):
        lead = gamma_matrix(sym, n, alpha, lo)[:n - lo, :n - lo]
        assert gamma_matrix(sym, n, alpha, -lo).tobytes() == lead.tobytes()


@pytest.mark.parametrize("alpha", (-0.5, 0.5, 2.75))
def test_far_tail_of_a_monomial_is_its_closed_form(alpha):
    # n = 1, a = t^m: the block is the moment ratio
    # prod_{i=1..m} (xi + i) / (xi + i + alpha + 1)
    for xi in (10 ** 3, 10 ** 4, 10 ** 5):
        for m in range(1, 11):
            got = entry_block(poly_t_symbol([0.0] * m + [1.0]), alpha, xi, 1)[0, 0]
            want = 1
            for i in range(1, m + 1):
                want *= Fraction(xi + i) / (xi + i + Fraction(alpha) + 1)
            assert abs(got - float(want)) <= 4 * m * EPS * float(want), (xi, m)


def test_poly_gamma_answers_far_past_the_moment_guard(tmp_path, capsys):
    # about 0.3 s in-process (0.5 s as a cold process), most of it the
    # 3.9 MB of JSON
    out = tmp_path / "seq.json"
    code = main(["gamma", "--n", "4", "--alpha", "0.5", "--xi-max", "10000",
                 "--symbol", '{"kind":"poly_t","coeffs":[0.3,-0.7,0.2,0.9]}',
                 "--out", str(out)])
    assert code == 0
    last = capsys.readouterr().out.splitlines()[-1].split()
    assert last[:2] == ["10000", "4"]
    # the tail falls like 1/xi
    assert float(last[3]) < 1e-2


@pytest.mark.parametrize("sym", [make_gp(3, 0.5), indicator_symbol(0.6)])
def test_moment_kinds_still_refuse_past_the_guard(sym, capsys):
    d = 4
    edge = MAX_MOMENT_DEGREE - 2 * (d - 1)
    assert np.isfinite(entry_blocks(sym, 0.5, range(edge - 1, edge + 1), d)).all()
    with pytest.raises(ValueError, match=GUARD_MESSAGE):
        entry_blocks(sym, 0.5, range(edge - 1, edge + 2), d)
    code = main(["gamma", "--n", str(d), "--alpha", "0.5", "--xi-max", str(edge + 1),
                 "--symbol", '{"kind":"%s",%s}' % (
                     sym.kind, f'"p":{sym.p}' if sym.p is not None else f'"s":{sym.s}')])
    assert code == 2
    assert GUARD_MESSAGE in capsys.readouterr().err


@pytest.mark.parametrize("alpha", (-0.5, 0.5, 2.5))
def test_constant_blocks_answer_at_every_frequency(alpha):
    # a constant's block forms no moment, so the moment guard does not
    # refuse it: `gamma --n 4 --xi-max 300` on a constant was refused
    for value in (2.0, 0.5 - 1j):
        seq = gamma_sequence(const_symbol(value), 4, alpha, 399)
        for xi in range(-3, 400):
            block = seq.block(xi)
            assert np.array_equal(block, value * np.eye(len(block))), (value, xi)


@pytest.mark.parametrize("alpha", (-0.5, 0.5, 2.5))
def test_poly_blocks_answer_past_the_coefficient_degree(alpha):
    # a poly_t block forms no Jacobi coefficient, so jacobi.MAX_DEGREE does
    # not refuse it: at order 70 (degree 69) the leading 8 x 8 of each
    # block is the order-8 block bit for bit
    for coeffs in ([0.3, -0.7, 0.2, 0.9], [1.0], [0.5 + 0.25j, 0.0, -0.75j]):
        sym = poly_t_symbol(coeffs)
        big, small = (entry_blocks(sym, alpha, range(40), d) for d in (70, 8))
        assert big[:, :8, :8].tobytes() == small.tobytes(), coeffs


def test_a_generator_for_another_alpha_is_refused():
    with pytest.raises(ValueError, match="pass its coefficients as a poly_t symbol"):
        entry_block(make_gp(3, 1.0), 0.5, 4, 2)


def test_generator_ranges_equal_the_fraction_oracle():
    # a range from a mid-range start carries its norms from there; stacked
    # and single-frequency blocks are the oracle's, byte for byte
    alpha, p, d, xis = 0.375, 5, 3, range(37, 121)
    sym, coeffs = make_gp(p, alpha), q_coeffs_fraction(alpha, 0.0, p)
    stack = entry_blocks(sym, alpha, xis, d)
    for i, xi in enumerate(xis):
        want = np.zeros((d, d))
        for j in range(d):
            for k in range(j, d):
                want[j, k] = want[k, j] = norm_product_fraction(alpha, xi, j, k) * (
                    poly_entry_fraction(coeffs, alpha, xi, j, k))
        assert stack[i].tobytes() == want.tobytes(), xi
        assert entry_block(sym, alpha, xi, d).tobytes() == want.tobytes(), xi


def test_poly_sequences_form_no_jacobi_coefficients():
    before = jacobi.q_coeffs_int.cache_info().misses
    for coeffs in ([0.25, -1.0, 0.5], [0.5 + 0.25j, 0.0, -0.75j]):
        gamma_sequence(poly_t_symbol(coeffs), 8, 0.3125, 120)
    assert jacobi.q_coeffs_int.cache_info().misses == before


@st.composite
def generator_cases(draw):
    # p is drawn around |xi|, where the antidiagonal p - |xi| of a block
    # of order d runs from before its first (0) to past its last, 2 (d-1)
    n = draw(st.integers(1, 8))
    xi = draw(st.integers(-n + 1, MAX_MOMENT_DEGREE - 2 * (n - 1)))
    p = abs(xi) + draw(st.integers(-3, 2 * (n - 1) + 3))
    alpha = draw(st.integers(-15, 127)) / 16
    return n, alpha, xi, min(max(p, 0), MAX_MOMENT_DEGREE)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(generator_cases())
@example((8, 0.5, MAX_MOMENT_DEGREE - 14, MAX_MOMENT_DEGREE))
@example((4, -15 / 16, -3, 0))
def test_generator_blocks_are_antitriangular(case):
    # entries above the antidiagonal j + k = p - |xi| are literal zeros, and
    # those on it positive; so the block is zero exactly when p - |xi| lies
    # past 2 (d - 1), the zero SeparationPlan.evaluate skips
    n, alpha, xi, p = case
    block = generator_block(n, alpha, xi, p)
    d, anti = len(block), p - abs(xi)
    sums = np.add.outer(np.arange(d), np.arange(d))
    assert np.all(block[sums < anti] == 0.0)
    assert np.all(block[sums == anti] > 0.0)
    assert (not block.any()) == (anti > 2 * (d - 1))
