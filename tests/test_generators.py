"""Antitriangular reports, the matrix-unit recursion, and the evaluation
of hand-written separation plans."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest

from polyberg.gammaseq import block_order, frequencies, gamma_matrix, gamma_sequence
from polyberg.generators import (
    GeneratorStructureError,
    antitriangular_report,
    generator_block,
    generator_family,
    matrix_unit,
    matrix_unit_errors,
    nu_table,
    SeparationPlan,
)
from polyberg import generators, integration
from polyberg.integration import MAX_MOMENT_DEGREE
from polyberg.purestates import _unit_witness, finite_state, separate
from polyberg.symbols import make_gp
from polyberg.verify import (
    antitriangular_failures,
    matrix_unit_error,
    random_antitriangular_generators,
)


def unit_matrix(d, p, q):
    e = np.zeros((d, d))
    e[p, q] = 1.0
    return e


def test_report_frozen_examples():
    m = gamma_matrix(make_gp(1, 0.0), 2, 0.0, 0)
    rep = antitriangular_report(m, 1)
    assert rep.holds and rep.below_max == 0.0
    assert rep.anti_min == pytest.approx(1.0 / np.sqrt(3.0))

    rep_id = antitriangular_report(np.eye(3), 0)
    assert rep_id.holds

    zero = gamma_matrix(make_gp(4, 0.5), 2, 0.5, 0)
    rep_zero = antitriangular_report(zero, 4)
    assert np.max(np.abs(zero)) < 1e-10
    assert rep_zero.holds  # all entries below the (empty) antidiagonal vanish


def test_report_detects_violations():
    bad = np.array([[0.5, 1.0], [1.0, 0.3]])
    rep = antitriangular_report(bad, 1)
    assert not rep.holds  # nonzero above
    assert (rep.below_fault, rep.anti_fault) == ((0, 0), None)
    bad2 = np.array([[0.0, 1e-12], [1e-12, 0.5]])
    rep2 = antitriangular_report(bad2, 1)
    assert not rep2.holds  # antidiagonal too small
    assert (rep2.below_fault, rep2.anti_fault) == (None, (0, 1))


def test_report_faults_name_the_extreme_entries():
    # the largest entry above the antidiagonal, the smallest on it, the
    # first in row order on a tie, and a NaN before any number
    m = np.array([[0.1, 0.3, 1e-9], [0.3, 1e-9, 1.0], [1e-10, 1.0, 1.0]])
    rep = antitriangular_report(m, 2)
    assert (rep.below_fault, rep.below_max) == ((0, 1), 0.3)
    assert (rep.anti_fault, rep.anti_min) == ((2, 0), 1e-10)
    m[1, 1] = np.nan
    rep = antitriangular_report(m, 2)
    assert rep.anti_fault == (1, 1) and np.isnan(rep.anti_min)
    assert antitriangular_report(np.eye(2), 0).below_fault is None


def test_report_divides_by_a_subnormal_scale_without_underflow():
    # each magnitude is divided by the scale before it meets a tolerance:
    # TOL_ZERO * 1e-320 would round to 0.0 and fail a zero below_max
    rep = antitriangular_report(np.array([[1e-320]]), 0)
    assert rep.holds and (rep.below_max, rep.scale) == (0.0, 1e-320)
    sub = np.array([[0.0, 5e-324], [5e-324, 0.0]])
    assert antitriangular_report(sub, 1).holds
    assert antitriangular_report(sub, 2).below_fault == (0, 1)
    # the family meets the rule, and then its nu = 1 / c^2 overflows
    with pytest.raises(GeneratorStructureError, match=r"^coefficient nu\[0\]\[0\] = inf is not finite$"):
        nu_table([np.array([[5e-324]])])


def test_generator_structure_profile():
    # blocks of the generating symbols are (p - |xi|)-antitriangular
    for n in (2, 3, 5):
        for alpha in (0.0, 0.5, 2.5):
            blocks = [
                (xi, p) for xi in (-n + 1, -1, 0, 2, 6) if xi >= -n + 1
                for p in range(2 * min(n + xi, n) - 1 + abs(xi))
            ]
            assert antitriangular_failures(n, alpha, blocks) == [], (n, alpha)


def test_zero_lemma_blocks_are_exactly_zero():
    # past the last antidiagonal the report holds for literal zeros only
    for n in (2, 4):
        for alpha in (0.0, 1.0):
            blocks = [(xi, 2 * block_order(n, xi) - 1 + abs(xi) + i)
                      for xi in (-n + 1, 0, 3) for i in range(4)]
            assert antitriangular_failures(n, alpha, blocks) == [], (n, alpha)
            assert all(not generator_block(n, alpha, xi, p).any() for xi, p in blocks)


def test_nu_table_hand_recursion_n2():
    a, b, c = 0.83, -0.41, 1.27
    g0 = np.array([[0.0, a], [a, b]])
    g1 = np.array([[0.0, 0.0], [0.0, c]])
    nu = nu_table([g0, g1])
    assert nu[1, 1] == pytest.approx(1.0 / c**2, rel=1e-15)
    assert nu[0, 0] == pytest.approx(1.0 / (a * c), rel=1e-15)
    assert nu[0, 1] == pytest.approx(-b / (a * c**2), rel=1e-15)
    assert np.allclose(matrix_unit([g0, g1], 1, 0), unit_matrix(2, 1, 0), atol=1e-15)


def test_nu_table_hand_recursion_n3(rng):
    # closed forms obtained by solving the three elimination steps by hand
    gs = random_antitriangular_generators(3, 11)
    nu = nu_table(gs)
    g0, g1, g2 = gs
    nu22 = 1.0 / g2[2, 2] ** 2
    nu11 = 1.0 / (g1[2, 1] * g2[2, 2])
    nu12 = -g1[2, 2] * nu22 / g1[2, 1]
    nu00 = 1.0 / (g0[2, 0] * g2[2, 2])
    nu01 = -nu11 * g0[2, 1] / g0[2, 0]
    nu02 = -(nu12 * g0[2, 1] + nu22 * g0[2, 2]) / g0[2, 0]
    assert nu[2, 2] == pytest.approx(nu22, rel=1e-14)
    assert nu[1, 1] == pytest.approx(nu11, rel=1e-14)
    assert nu[1, 2] == pytest.approx(nu12, rel=1e-14)
    assert nu[0, 0] == pytest.approx(nu00, rel=1e-14)
    assert nu[0, 1] == pytest.approx(nu01, rel=1e-14)
    assert nu[0, 2] == pytest.approx(nu02, rel=1e-14)


def test_plan_truncation_consistency():
    plan = SeparationPlan(3, 0.5, ((0.75, 3), (-1.5, 5)), 4, ((2.0, 4),))
    short = plan.evaluate(2)
    long = plan.evaluate(6)
    for xi in frequencies(3, 2):
        assert np.array_equal(short.block(xi), long.block(xi))
    assert long.xi_max == 6


def test_nu_table_order_one():
    g = np.array([[2.5]])
    nu = nu_table([g])
    assert nu[0, 0] == pytest.approx(1.0 / 6.25)
    assert matrix_unit([g], 0, 0) == pytest.approx(np.array([[1.0]]))


def test_nu_table_structure_errors():
    good = random_antitriangular_generators(3, 5)
    bad_last = [g.copy() for g in good]
    bad_last[2][0, 0] = 0.5
    with pytest.raises(GeneratorStructureError, match=r"^last generator: entry \(0,0\) = 5\.000e-01 must vanish$"):
        nu_table(bad_last)
    bad_last[2][1, 0] = 0.7  # the larger of two is named
    with pytest.raises(GeneratorStructureError, match=r"entry \(1,0\) = 7\.000e-01 must vanish"):
        nu_table(bad_last)
    bad_last[2][2, 2] = 0.0  # the corner comes first
    with pytest.raises(GeneratorStructureError,
                       match=r"^last generator: corner entry \(2,2\) = 0\.000e\+00 is not a nonzero multiple$"):
        nu_table(bad_last)
    bad_row = [g.copy() for g in good]
    bad_row[1][2, 0] = 0.9
    with pytest.raises(GeneratorStructureError, match=r"^generator 1: row entry \(2,0\) = 9\.000e-01 must vanish$"):
        nu_table(bad_row)
    bad_pivot = [g.copy() for g in good]
    bad_pivot[0][2, 0] = 0.0
    with pytest.raises(GeneratorStructureError,
                       match=r"^generator 0: row entry \(2,0\) = 0\.000e\+00 must be nonzero$"):
        nu_table(bad_pivot)
    bad_pivot[1][2, 0] = 0.9  # generator 0 comes first
    with pytest.raises(GeneratorStructureError, match="^generator 0: "):
        nu_table(bad_pivot)


def test_nu_table_row_names_its_pivot_then_its_largest_nonvanishing_entry():
    gs = random_antitriangular_generators(4, 5)
    gs[2][3, 0], gs[2][3, 1] = 0.3, 0.6
    with pytest.raises(GeneratorStructureError, match=r"^generator 2: row entry \(3,1\) = 6\.000e-01 must vanish$"):
        nu_table(gs)
    gs[2][3, 2] = 0.0
    with pytest.raises(GeneratorStructureError, match=r"^generator 2: row entry \(3,2\) = 0\.000e\+00 must be nonzero$"):
        nu_table(gs)


def test_nu_table_refuses_coefficients_that_are_not_finite():
    # the structure rule is scale-free but nu is not: 1 / (1e-200)^2 overflows
    tiny = [np.array([[1e-200]])]
    with pytest.raises(GeneratorStructureError, match=r"^coefficient nu\[0\]\[0\] = inf is not finite$"):
        nu_table(tiny)
    with pytest.raises(GeneratorStructureError, match="is not finite"):
        matrix_unit_errors(tiny)
    assert nu_table([np.array([[1e-100]])])[0, 0] == pytest.approx(1e200)
    # a NaN past a row's antidiagonal meets the rule and reaches nu
    gs = random_antitriangular_generators(3, 5)
    gs[0][2, 2] = np.nan
    with pytest.raises(GeneratorStructureError, match="is not finite"):
        nu_table(gs)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("symmetric", [False, True])
def test_matrix_units_random_generators(n, symmetric):
    families = (random_antitriangular_generators(n, seed, symmetric) for seed in range(12))
    assert matrix_unit_error(families) < 1e-8


def test_matrix_unit_corner_any_valid_family():
    for seed in (0, 3):
        gs = random_antitriangular_generators(4, seed)
        got = matrix_unit(gs, 3, 3)
        assert np.max(np.abs(got - unit_matrix(4, 3, 3))) < 1e-10


def test_matrix_unit_errors_are_the_per_unit_errors_bit_for_bit():
    # general, real symmetric and complex families, and package families
    families = [random_antitriangular_generators(n, seed, symmetric)
                for n in (2, 3, 5) for seed in (1, 2) for symmetric in (False, True)]
    families += [[g * (1 + 0.5j) for g in random_antitriangular_generators(4, 7)]]
    families += [generator_family(n, 0.5, xi) for n, xi in ((3, 0), (4, -2), (4, 5))]
    for gs in families:
        d = len(gs)
        errs = matrix_unit_errors(gs)
        for p in range(d):
            for q in range(d):
                want = np.max(np.abs(matrix_unit(gs, p, q) - unit_matrix(d, p, q)))
                assert errs[p, q].tobytes() == want.tobytes(), (d, p, q)


def test_real_symmetric_units_are_the_unconjugated_product_bit_for_bit():
    # the conjugating product needs no real-symmetric form of its own
    families = [random_antitriangular_generators(n, seed, True)
                for n in (1, 2, 3, 4, 5, 6) for seed in range(4)]
    families += [generator_family(n, alpha, xi)
                 for n in (2, 3, 4) for alpha in (0.0, 0.5, 2.5) for xi in (-n + 1, 0, 3)]
    for gs in families:
        assert all(np.isrealobj(g) and np.array_equal(g, g.T) for g in gs)
        nu, d = nu_table(gs), len(gs)
        for p in range(d):
            for q in range(d):
                left = sum(nu[p, j] * gs[j] for j in range(p, d))
                right = sum(nu[q, k] * gs[k] for k in range(q, d))
                want = left @ gs[-1] @ gs[-1] @ right
                assert matrix_unit(gs, p, q).tobytes() == want.tobytes(), (d, p, q)


def test_nu_table_dtype_follows_the_family():
    real = random_antitriangular_generators(3, 4)
    assert nu_table(real).dtype == np.float64
    assert nu_table(generator_family(3, 0.5, 1)).dtype == np.float64
    assert nu_table([g.astype(np.float32) for g in real]).dtype == np.float64
    assert nu_table([g * (1 + 0.5j) for g in real]).dtype == np.complex128
    mixed = real[:-1] + [real[-1] * (1 + 0j)]
    assert nu_table(mixed).dtype == np.complex128


def test_plan_scalar_limit_propagates():
    plan = SeparationPlan(2, 0.0, ((0.75, 1), (-1.5, 2)), 2, ((2.0, 1),))
    x = plan.evaluate(2)
    lims = {k: make_gp(k, 0.0).limit for _, k in plan.left}
    want = (
        sum(c * lims[k] for c, k in plan.left)
        * make_gp(plan.middle, 0.0).limit ** 2
        * sum(c * lims[k] for c, k in plan.right)
    )
    assert x.scalar_limit == pytest.approx(want, rel=1e-12)


@lru_cache(maxsize=None)
def _fresh_block(n, alpha, xi, k):
    # integrated on its own, at its own order, not read off a generator stack
    return gamma_matrix(make_gp(k, alpha), n, alpha, xi)


def _reference_evaluation(plan, xi_max):
    # the product L @ M @ M @ R frequency by frequency on the blocks
    blocks = {}
    for xi in range(-plan.n + 1, xi_max + 1):
        left = sum(c * _fresh_block(plan.n, plan.alpha, xi, k) for c, k in plan.left)
        right = sum(c * _fresh_block(plan.n, plan.alpha, xi, k) for c, k in plan.right)
        mid = _fresh_block(plan.n, plan.alpha, xi, plan.middle)
        blocks[xi] = left @ mid @ mid @ right
    return blocks


SIDES = (((1.0, 0),), ((0.75, 1), (-1.5, 3)))  # a side of one term and one of two


def _plans(n, alpha):
    # every middle m <= 2n + 5 between sides of one and of two terms, with
    # eta0 = max(-n+1, m - 2 (n-1)), the first frequency of a nonzero
    # middle block, up to 7
    for m in range(2 * n + 6):
        for left in SIDES:
            for right in SIDES:
                yield max(-n + 1, m - 2 * (n - 1)), SeparationPlan(n, alpha, left, m, right)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.5])
def test_evaluate_equals_per_frequency_products(n, alpha):
    refs = {}
    for xi, plan in _plans(n, alpha):
        for xi_max in {max(xi, 0), 9}:
            key = (plan, xi_max)
            if key not in refs:
                refs[key] = _reference_evaluation(plan, xi_max)
            got = plan.evaluate(xi_max)
            assert list(frequencies(n, got.xi_max)) == list(refs[key])
            for f, want in refs[key].items():
                assert np.array_equal(got.block(f), want), (n, alpha, plan, xi_max, f)


def _batched_evaluation(plan, xi_max):
    # the product L @ M @ M @ R over fresh gamma_sequence stacks, uncached
    def stack(k):
        return gamma_sequence(make_gp(k, plan.alpha), plan.n, plan.alpha, xi_max).blocks

    def combine(terms):
        return sum(c * stack(k) for c, k in terms)

    mid = stack(plan.middle)
    return combine(plan.left) @ mid @ mid @ combine(plan.right)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_cached_evaluations_equal_the_batched_product(n, alpha):
    for xi, plan in _plans(n, alpha):
        xi_max = max(xi, 0)
        first, second = plan.evaluate(xi_max), plan.evaluate(xi_max)
        assert np.array_equal(first.blocks, _batched_evaluation(plan, xi_max)), (plan, xi_max)
        # each call builds a new sequence, bit for bit the same
        assert first.blocks.tobytes() == second.blocks.tobytes()
        assert first.scalar_limit == second.scalar_limit
        assert not first.blocks.flags.writeable and not second.blocks.flags.writeable
        for name in ("scalar_limit", "blocks"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(second, name, None)


def test_cached_witnesses_come_back_unchanged():
    a, b = _unit_witness(3, 0.5, 1, 0, 1)[1]  # the sym and skew witnesses
    before = [(x.blocks.tobytes(), x.scalar_limit) for x in (a, b)]
    h = np.sqrt(0.5)
    witness, _ = separate(finite_state(1, [h, h * 1j, 0.0]), finite_state(1, [h, -h * 1j, 0.0]), 3, 0.5)
    assert witness is b
    assert [(x.blocks.tobytes(), x.scalar_limit) for x in (a, b)] == before
    again = _unit_witness(3, 0.5, 1, 0, 1)[1]
    assert again[0] is a and again[1] is b


def test_generator_blocks_equal_fresh_sequences():
    # requests in no particular order: each one integrates the blocks not
    # yet cached, or reads cached ones
    n, alpha = 3, 0.375
    for xi_max in (0, 4, 1, 9, 9, 2, 15):
        for p in (2, 5, 9):
            want = gamma_sequence(make_gp(p, alpha), n, alpha, xi_max)
            for xi in frequencies(n, xi_max):
                got = generator_block(n, alpha, xi, p)
                assert got.dtype == want.blocks.dtype, (xi, p)
                assert got.tobytes() == want.block(xi).tobytes(), (xi, p)
    with pytest.raises(ValueError, match="xi_max must be nonnegative"):
        SeparationPlan(n, alpha, SIDES[0], 4, SIDES[1]).evaluate(-1)


def test_evaluations_refuse_where_fresh_sequences_do():
    n, alpha = 2, 0.375
    # the last frequency whose top moment degree, xi + 2 (n - 1), is admitted
    last = MAX_MOMENT_DEGREE - 2 * (n - 1)
    plan = SeparationPlan(n, alpha, ((0.75, last - 2), (-1.5, last - 1)), last - 1,
                          ((2.0, last - 1),))
    generator_block.cache_clear()
    # refused before any block is integrated, on the first request and
    # again once the plan's own blocks are cached
    for xi_max in (last + 1, last + 1, 200):
        held = generator_block.cache_info().currsize
        with pytest.raises(ValueError) as fresh:
            gamma_sequence(make_gp(plan.left[0][1], alpha), n, alpha, xi_max)
        with pytest.raises(ValueError) as grown:
            plan.evaluate(xi_max)
        assert str(grown.value) == str(fresh.value)
        assert generator_block.cache_info().currsize == held
        plan.evaluate(last - 3)
    assert np.array_equal(plan.evaluate(last).blocks, _batched_evaluation(plan, last))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_evaluation_multiplies_from_the_first_nonzero_middle_block(n, alpha, monkeypatch):
    # below eta0 = max(-n+1, m - 2 (n-1)) the middle block is an exact zero
    # and no block is read; from eta0 on the middle block is read, and at
    # eta0 itself it is nonzero
    for xi, plan in _plans(n, alpha):
        eta0 = max(-n + 1, plan.middle - 2 * (n - 1))
        read = []
        monkeypatch.setattr(generators, "generator_block",
                            lambda n_, a_, eta, k: read.append(eta) or _fresh_block(n_, a_, eta, k))
        x = plan.evaluate(9)
        monkeypatch.undo()
        assert set(read) == set(range(eta0, 10)), (plan, eta0)
        assert _fresh_block(n, alpha, eta0, plan.middle).any()
        for eta in range(-n + 1, eta0):
            assert not _fresh_block(n, alpha, eta, plan.middle).any()
            assert not x.block(eta).any()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.5])
def test_negative_block_is_leading_submatrix(n, alpha):
    for eta in range(1, n):
        d = n - eta
        for p in range(2 * n + 2):
            neg = generator_block(n, alpha, -eta, p)
            assert neg.shape == (d, d)
            assert np.array_equal(neg, generator_block(n, alpha, eta, p)[:d, :d]), (eta, p)


def test_negative_block_integrates_only_its_mirror(monkeypatch):
    # frequency -49 at n = 50 is a 1 x 1 block: one order-50 block at 49
    generator_block.cache_clear()
    calls = []
    real = integration.entry_blocks

    def spy(a, alpha, xis, d):
        calls.append((a.p, list(xis), d))
        return real(a, alpha, xis, d)

    monkeypatch.setattr(integration, "entry_blocks", spy)
    block = generator_block(50, 0.5, -49, 49)
    assert block.shape == (1, 1) and block[0, 0] != 0.0
    assert generator_block(50, 0.5, -49, 49) is block
    assert calls == [(49, [49], 50)]


def test_evaluations_and_witness_blocks_are_read_only():
    plan = SeparationPlan(3, 0.5, SIDES[1], 5, SIDES[0])
    x = plan.evaluate(4)
    assert x.blocks.shape == (4 + 3, 3, 3)
    with pytest.raises(ValueError):
        x.blocks[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        generator_block(3, 0.5, 2, plan.middle)[0, 0] = 1.0
    # a witness record holds read-only stacks, and its skew block is a
    # read-only view of the complex one
    _, witnesses, skew = _unit_witness(3, 0.5, 1, 0, 1)
    assert skew.base is witnesses[1].blocks.base and skew.dtype == complex
    for b in (*(w.blocks for w in witnesses), skew):
        assert not b.flags.writeable
        with pytest.raises(ValueError):
            b[0, 0] = 1.0
