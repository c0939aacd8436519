"""Disk polynomials and the 2D tensor-quadrature cross-check."""

import numpy as np
import pytest

from conftest import disk_poly_alt
from polyberg.bergman_oracle import DiskPoint, disk_poly, toeplitz_entry_2d
from polyberg.symbols import const_symbol, indicator_symbol, make_gp
from polyberg.verify import oracle_gaps


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


def test_oracle_aliasing_guard():
    with pytest.raises(ValueError):
        toeplitz_entry_2d(const_symbol(1.0), 0.0, 6, 0, 6, 0, angular_nodes=10)
