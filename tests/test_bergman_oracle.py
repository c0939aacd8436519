"""Disk polynomials and the 2D tensor-quadrature cross-check."""

import os
import subprocess
import sys
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import disk_poly_alt
from polyberg import bergman_oracle
from polyberg.bergman_oracle import (
    RADIAL_PANELS,
    DiskPoint,
    disk_poly,
    oracle_gaps,
    quadrature_block,
    radial_panels,
    radial_rule,
    toeplitz_entry_2d,
)
from polyberg.gammaseq import block_order
from polyberg.symbols import (
    const_symbol,
    indicator_symbol,
    make_gp,
    poly_t_symbol,
    sampled_symbol,
)


def test_disk_poly_constant():
    for alpha in (0.0, 0.5, 2.5):
        for r, th in [(0.0, 0.0), (0.5, 1.1), (0.99, 4.0)]:
            assert disk_poly(0, 0, alpha, DiskPoint(r, th)) == pytest.approx(1.0)


def test_disk_poly_first_offdiagonal():
    for r, th in [(0.3, 0.4), (0.8, 2.0)]:
        got = disk_poly(1, 0, 0.0, DiskPoint(r, th))
        want = np.sqrt(2.0) * r * np.exp(1j * th)
        assert abs(got - want) < 1e-14


def test_disk_poly_modulus_theta_independent(rng):
    for _ in range(20):
        p, q = int(rng.integers(0, 5)), int(rng.integers(0, 5))
        alpha = float(rng.choice([0.0, 1.0, 2.5]))
        r = float(rng.uniform(0.0, 0.95))
        mags = {
            round(abs(disk_poly(p, q, alpha, DiskPoint(r, th))), 12)
            for th in np.linspace(0.0, 6.0, 7)
        }
        assert len(mags) == 1


def test_disk_poly_two_forms_agree(rng):
    for _ in range(30):
        p, q = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        alpha = float(rng.choice([0.0, 0.5, 1.0, 2.5]))
        r = float(rng.uniform(0.05, 0.95))
        th = float(rng.uniform(0.0, 6.28))
        a = disk_poly(p, q, alpha, DiskPoint(r, th))
        b = disk_poly_alt(p, q, alpha, r, th)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_disk_poly_domain():
    with pytest.raises(ValueError):
        disk_poly(0, 0, 0.0, DiskPoint(1.0, 0.0))
    with pytest.raises(ValueError):
        disk_poly(-1, 0, 0.0, DiskPoint(0.5, 0.0))


def test_oracle_orthonormality_const():
    one = const_symbol(1.0)
    for alpha in (0.0, 1.0):
        assert toeplitz_entry_2d(one, alpha, 2, 1, 2, 1) == pytest.approx(
            1.0, abs=1e-8
        )
        assert abs(toeplitz_entry_2d(one, alpha, 2, 1, 1, 0)) < 1e-10
        assert abs(toeplitz_entry_2d(one, alpha, 3, 0, 1, 0)) < 1e-10


def test_oracle_indicator_frozen_value():
    got = toeplitz_entry_2d(indicator_symbol(0.5), 0.0, 1, 0, 1, 0)
    assert got == pytest.approx(1.0 / 16.0, abs=1e-9)


def test_oracle_frequency_selection(rng):
    symbols = [make_gp(2, 1.0), indicator_symbol(0.6)]
    checked = 0
    while checked < 50:
        p, q, p2, q2 = (int(x) for x in rng.integers(0, 5, size=4))
        if p - q == p2 - q2:
            continue
        a = symbols[checked % 2]
        assert abs(toeplitz_entry_2d(a, 1.0, p, q, p2, q2)) < 1e-8
        checked += 1


def test_oracle_matches_exact_entries():
    for alpha in (0.0, 0.5, 1.0, 1.5):
        for a in (indicator_symbol(0.5), make_gp(2, alpha)):
            for n in (1, 3):
                gaps = oracle_gaps(a, n, alpha, 3)
                assert max(gaps.values()) < 1e-6, (alpha, a.kind, n, gaps)


def test_radial_panels_follow_the_degree():
    # n <= 4 with xi_max <= 4, or n = 2 with xi_max <= 6, and a symbol of
    # degree <= 4 keep the fixed rule; g_70 gets k (16 + k / 8) panels
    for a in (make_gp(4, 0.5), poly_t_symbol([0.3, -0.2, 0.5]), indicator_symbol(0.5)):
        assert radial_panels(a, 2 * 3 + 4) == radial_panels(a, 2 + 6) == RADIAL_PANELS
    assert radial_panels(make_gp(70, 0.5), 2 + 2) == 74 * (16 + 9)


@pytest.mark.parametrize("alpha", [0.0, 2.5, 7.5])
@pytest.mark.parametrize("p", [70, 192])
def test_oracle_resolves_high_degree_generators(p, alpha):
    # 256 fixed panels left 2.1e-4 at g_70 (alpha = 0.5); every exact
    # block is a closed form or a literal zero
    assert max(oracle_gaps(make_gp(p, alpha), 2, alpha, 2).values()) < 1e-8


@pytest.mark.parametrize("alpha", [-0.99, -0.9, -0.75, -0.6])
def test_oracle_serves_alpha_below_minus_one_half(alpha):
    # the weight 2 u^(2 alpha + 1) is singular at u = 0; a Gauss-Legendre
    # first panel left 0.17 for the constant at alpha = -0.9
    for a in (const_symbol(1.0), make_gp(3, alpha), poly_t_symbol([0.3, -0.2, 0.5]),
              indicator_symbol(0.6)):
        assert max(oracle_gaps(a, 3, alpha, 4).values()) < 1e-6, (alpha, a.kind)


@pytest.mark.parametrize("alpha", [-0.99, -0.5, 0.0, 2.5])
def test_first_panel_is_the_gauss_rule_of_the_weight(alpha):
    # one panel is the first: 2 u^(2 alpha + 1) u^k integrates exactly for k <= 7
    nodes, weights = bergman_oracle.weighted_grid(1, alpha)
    assert np.all((nodes > 0.0) & (nodes < 1.0))
    for k in range(8):
        assert np.sum(weights * nodes**k) == pytest.approx(2.0 / (2.0 * alpha + 2.0 + k), rel=1e-13)


def test_grid_edges_are_the_distinct_sorted_breakpoints(rng):
    # duplicates, breakpoints on the equal panels' edges and -0.0 give the
    # grid of np.unique's edges, bit for bit
    for _ in range(50):
        panels = int(rng.integers(1, 12))
        pts = list(rng.choice(np.linspace(0.0, 1.0, panels + 1), size=3))
        pts += list(rng.random(size=4)) + [-0.0, 0.0]
        pts += list(rng.choice(pts, size=3))
        alpha = float(rng.choice([-0.75, 0.0, 1.5]))
        got = bergman_oracle.weighted_grid(panels, alpha, pts)
        want = bergman_oracle.weighted_grid(panels, alpha, np.unique(pts))
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        edges = np.unique(np.append(np.linspace(0.0, 1.0, panels + 1), pts))
        assert len(got[0]) == 4 * (len(edges) - 1)


def test_oracle_loads_no_numpy_ma():
    # np.unique imports numpy.ma on its first call (0.9 MB of RSS)
    code = ("import sys; from polyberg.bergman_oracle import oracle_gaps; "
            "from polyberg.symbols import indicator_symbol; "
            "oracle_gaps(indicator_symbol(0.5), 3, 1.0, 4); print('numpy.ma' in sys.modules)")
    src = os.path.dirname(os.path.dirname(bergman_oracle.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True, timeout=60).stdout
    assert out.split() == ["False"]


def test_oracle_aliasing_guard():
    with pytest.raises(ValueError):
        toeplitz_entry_2d(const_symbol(1.0), 0.0, 6, 0, 6, 0, angular_nodes=10)


def test_closed_form_gauss_legendre_rule():
    # numpy.polynomial is read here only; the module writes the rule out
    nodes, _ = np.polynomial.legendre.leggauss(4)
    assert np.all(np.abs(bergman_oracle._GL_NODES - nodes) <= 2 * np.spacing(np.abs(nodes)))
    # leggauss(4) itself rounds its outer weight 5.1 ulp away from
    # (18 - sqrt 30)/36, so nodes and weights are held to 40-digit values
    with mpmath.workdps(40):
        root = 2 * mpmath.sqrt(mpmath.mpf(6) / 5) / 7
        inner, outer = mpmath.sqrt(mpmath.mpf(3) / 7 - root), mpmath.sqrt(mpmath.mpf(3) / 7 + root)
        w_inner, w_outer = (18 + mpmath.sqrt(30)) / 36, (18 - mpmath.sqrt(30)) / 36
        exact = [(-outer, w_outer), (-inner, w_inner), (inner, w_inner), (outer, w_outer)]
        for got_x, got_w, (x, w) in zip(bergman_oracle._GL_NODES, bergman_oracle._GL_WEIGHTS,
                                        exact):
            assert abs(got_x - x) <= np.spacing(abs(got_x))
            assert abs(got_w - w) <= np.spacing(got_w)


CONTRACTION_SYMBOLS = {
    "const": lambda alpha: const_symbol(0.7),
    "poly_t": lambda alpha: poly_t_symbol([0.3, -0.2, 0.5]),
    "poly_t_complex": lambda alpha: poly_t_symbol([0.3 + 0.1j, -0.2j, 0.5]),
    "jacobi_g": lambda alpha: make_gp(3, alpha),
    "indicator": lambda alpha: indicator_symbol(0.63),
    "sampled": lambda alpha: sampled_symbol([(0.0, 1.0), (0.4, 0.2), (0.9, 0.5)]),
}


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 1.0, 2.5])
@pytest.mark.parametrize("kind", list(CONTRACTION_SYMBOLS))
def test_block_contraction_matches_entrywise_quadrature(kind, alpha):
    a = CONTRACTION_SYMBOLS[kind](alpha)
    rule = radial_rule(a, alpha)
    # the indicator's jump at u = sqrt(1 - s^2) is one more panel edge, and
    # so is each knot of the table past t = 0 (u = 1 is an edge already)
    assert rule.r.size == 4 * (RADIAL_PANELS + {"indicator": 1, "sampled": 2}.get(kind, 0))

    @lru_cache(maxsize=None)
    def entry(xi, j, k):
        return toeplitz_entry_2d(a, alpha, max(j + xi, j), max(j - xi, j),
                                 max(k + xi, k), max(k - xi, k))

    for n in range(1, 5):
        for xi in range(-n + 1, 5):
            block = quadrature_block(rule, n, alpha, xi)
            assert block.shape == (block_order(n, xi),) * 2
            for (j, k), got in np.ndenumerate(block):
                want = entry(xi, j, k)
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (n, xi, j, k, got, want)


@st.composite
def oracle_cases(draw):
    # a symbol of each kind, and a table whose first knot lies anywhere in
    # [0, 1/2), so that its kinks fall anywhere among the fixed panels
    alpha = draw(st.sampled_from([-0.5, 0.0, 0.5, 1.0, 2.5]))
    unit = st.floats(-1.0, 1.0)
    kind = draw(st.sampled_from(["const", "indicator", "poly_t", "jacobi_g", "sampled"]))
    if kind == "const":
        a = const_symbol(draw(unit))
    elif kind == "indicator":
        a = indicator_symbol(draw(st.floats(0.05, 0.95)))
    elif kind == "poly_t":
        a = poly_t_symbol(draw(st.lists(unit, min_size=1, max_size=4)))
    elif kind == "jacobi_g":
        a = make_gp(draw(st.integers(0, 6)), alpha)
    else:
        first = draw(st.floats(0.0, 0.5, exclude_max=True))
        steps = draw(st.lists(st.floats(0.02, 0.15), min_size=1, max_size=4))
        ts = first + np.cumsum([0.0, *steps])
        a = sampled_symbol(zip(ts, draw(st.lists(unit, min_size=len(ts), max_size=len(ts)))))
    return a, draw(st.integers(1, 3)), alpha, draw(st.integers(0, 4))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(oracle_cases())
def test_oracle_meets_every_kind_to_rounding(case):
    # panel edges at a table's knots keep its kinks off the Gauss nodes:
    # with a kink inside a panel the table [[0,1],[0.3,0.2],[0.6,0.9],
    # [0.9,0.4]] read 1.1e-6 at n = 3, alpha = 0.5
    a, n, alpha, xi_max = case
    assert max(oracle_gaps(a, n, alpha, xi_max).values()) < 1e-12
