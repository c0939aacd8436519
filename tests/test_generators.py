"""Antitriangular reports, the matrix-unit recursion, and separation plans."""

import dataclasses
import json
from functools import lru_cache

import numpy as np
import pytest

from polyberg.gammaseq import block_order, frequencies, gamma_matrix, gamma_sequence
from polyberg.generators import (
    GeneratorStructureError,
    antitriangular_report,
    generator_block,
    generator_family,
    SeparationPlan,
    matrix_unit,
    matrix_unit_errors,
    nu_table,
    same_frequency_plan,
)
from polyberg import generators, integration
from polyberg.integration import MAX_MOMENT_DEGREE
from polyberg.purestates import _unit_witness
from polyberg.symbols import make_gp
from polyberg.verify import (
    antitriangular_failures,
    matrix_unit_error,
    random_antitriangular_generators,
    zero_lemma,
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
    assert not antitriangular_report(bad, 1).holds  # nonzero above
    bad2 = np.array([[0.0, 1e-12], [1e-12, 0.5]])
    assert not antitriangular_report(bad2, 1).holds  # antidiagonal too small


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
    for n in (2, 4):
        for alpha in (0.0, 1.0):
            assert zero_lemma(n, alpha, (-n + 1, 0, 3), 4)[0] == 0.0, (n, alpha)


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
    plan = same_frequency_plan(3, 0.5, 2, 1, 1)
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
    with pytest.raises(GeneratorStructureError, match="last generator"):
        nu_table(bad_last)
    bad_row = [g.copy() for g in good]
    bad_row[1][2, 0] = bad_row[1][2, 1]  # fills a required zero
    bad_row[1][2, 1] = 0.0  # kills the required nonzero? keep nonzero though
    bad_row = [g.copy() for g in good]
    bad_row[1][2, 0] = 0.9
    with pytest.raises(GeneratorStructureError, match="must vanish"):
        nu_table(bad_row)
    bad_pivot = [g.copy() for g in good]
    bad_pivot[0][2, 0] = 0.0
    with pytest.raises(GeneratorStructureError, match="must be nonzero"):
        nu_table(bad_pivot)


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
    families += [generator_family(n, 0.5, xi)[1] for n, xi in ((3, 0), (4, -2), (4, 5))]
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
    families += [generator_family(n, alpha, xi)[1]
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
    assert nu_table(generator_family(3, 0.5, 1)[1]).dtype == np.float64
    assert nu_table([g.astype(np.float32) for g in real]).dtype == np.float64
    assert nu_table([g * (1 + 0.5j) for g in real]).dtype == np.complex128
    mixed = real[:-1] + [real[-1] * (1 + 0j)]
    assert nu_table(mixed).dtype == np.complex128


def test_same_frequency_plan_examples():
    x = same_frequency_plan(2, 0.0, 0, 1, 1).evaluate(2)
    assert np.allclose(x.block(0), unit_matrix(2, 1, 1), atol=1e-12)

    x2 = same_frequency_plan(2, 0.0, 1, 0, 0).evaluate(2)
    assert np.allclose(x2.block(1), unit_matrix(2, 0, 0), atol=1e-12)

    # order-one frequency: plan collapses to a normalized fourth power
    x3 = same_frequency_plan(1, 0.0, 3, 0, 0).evaluate(3)
    assert x3.block(3)[0, 0] == pytest.approx(1.0, rel=1e-12)


def test_same_frequency_plan_negative_frequency():
    for n, xi in [(3, -1), (4, -2)]:
        d = n + xi
        for p in range(d):
            x = same_frequency_plan(n, 0.5, xi, p, p).evaluate(0)
            assert np.allclose(x.block(xi), unit_matrix(d, p, p), atol=1e-10)


def test_same_frequency_plan_off_diagonal_units():
    for p, q in [(0, 1), (2, 0), (1, 2)]:
        x = same_frequency_plan(3, 1.0, 2, p, q).evaluate(2)
        assert np.allclose(x.block(2), unit_matrix(3, p, q), atol=1e-10)


def test_cross_frequency_plan_cases():
    # the witness of a pair at xi < eta is the plan for E_pp at eta, whose
    # block at xi vanishes.  Nonnegative pair:
    x = same_frequency_plan(2, 0.0, 2, 0, 0).evaluate(2)
    assert np.allclose(x.block(2), unit_matrix(2, 0, 0), atol=1e-12)
    assert np.max(np.abs(x.block(0))) < 1e-12

    # negative lower, zero upper: example with the known zero block
    x2 = same_frequency_plan(2, 0.0, 0, 1, 1).evaluate(1)
    assert np.allclose(x2.block(0), unit_matrix(2, 1, 1), atol=1e-12)
    assert np.max(np.abs(x2.block(-1))) < 1e-12

    # both negative
    x3 = same_frequency_plan(3, 0.0, -1, 0, 0).evaluate(0)
    assert np.allclose(x3.block(-1), unit_matrix(2, 0, 0), atol=1e-12)
    assert np.max(np.abs(x3.block(-2))) < 1e-12

    # negative lower below the mirrored upper frequency
    x4 = same_frequency_plan(3, 0.5, 1, 0, 0).evaluate(1)
    assert np.allclose(x4.block(1), unit_matrix(3, 0, 0), atol=1e-10)
    assert np.max(np.abs(x4.block(-2))) < 1e-12


def test_cross_frequency_plan_full_grid():
    for n in (2, 3, 4):
        for alpha in (0.0, 1.0):
            for xi in range(-n + 1, 6):
                for eta in range(xi + 1, 7):
                    d = min(n + eta, n)
                    for p in (0, d - 1):
                        x = same_frequency_plan(n, alpha, eta, p, p).evaluate(
                            max(eta, 0)
                        )
                        err_unit = np.max(
                            np.abs(x.block(eta) - unit_matrix(d, p, p))
                        )
                        assert err_unit < 1e-8, (n, alpha, xi, eta, p, err_unit)
                        assert np.max(np.abs(x.block(xi))) < 1e-8


def test_cross_frequency_plan_usage_errors():
    # separation checks the lower frequency, the plan the index at eta
    with pytest.raises(IndexError):
        block_order(2, -2)
    with pytest.raises(ValueError):
        same_frequency_plan(2, 0.0, 3, 5, 5)


def test_plan_json():
    plan = same_frequency_plan(2, 0.0, 0, 0, 1)
    obj = json.loads(json.dumps(plan.to_json_obj()))
    assert set(obj) == {"left", "middle", "right", "n", "alpha"}
    assert obj["n"] == 2 and obj["middle"] == 2
    assert all(len(pair) == 2 for pair in obj["left"])


def test_plan_rebuilt_from_json_is_equal():
    plan = same_frequency_plan(3, 0.5, 1, 0, 2)
    rebuilt = SeparationPlan(**json.loads(json.dumps(plan.to_json_obj())))
    assert isinstance(rebuilt.left, tuple) and isinstance(rebuilt.right[0], tuple)
    assert rebuilt == plan and hash(rebuilt) == hash(plan)
    assert np.array_equal(rebuilt.evaluate(3).blocks, plan.evaluate(3).blocks)


def test_plan_scalar_limit_propagates():
    plan = same_frequency_plan(2, 0.0, 0, 0, 0)
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


def _plans(n, alpha):
    # every plan with frequencies up to 6 (the cross-frequency witnesses
    # among them), with the frequency its evaluation is read at
    for xi in range(-n + 1, 7):
        d = min(n + xi, n)
        for p in range(d):
            for q in range(d):
                yield xi, same_frequency_plan(n, alpha, xi, p, q)


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


def test_arithmetic_on_cached_witnesses_leaves_them_unchanged():
    a, b = _unit_witness(3, 0.5, 1, 0, 1)[1]  # the sym and skew witnesses
    before = [(x.blocks.tobytes(), x.scalar_limit) for x in (a, b)]
    for out in (a + b, 1j * a, a @ b):
        assert out is not a and out is not b
        assert not np.shares_memory(out.blocks, a.blocks)
        assert not np.shares_memory(out.blocks, b.blocks)
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
        same_frequency_plan(n, alpha, 0, 0, 0).evaluate(-1)


def test_evaluations_refuse_where_fresh_sequences_do():
    n, alpha = 2, 0.375
    # the last frequency whose top moment degree, xi + 2 (n - 1), is admitted
    last = MAX_MOMENT_DEGREE - 2 * (n - 1)
    plan = same_frequency_plan(n, alpha, last - 3, 0, 1)
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
        assert eta0 == xi  # a family's plan starts at its own frequency
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


def test_plans_are_cached():
    assert same_frequency_plan(3, 0.5, 1, 0, 2) is same_frequency_plan(3, 0.5, 1, 0, 2)
    # an integer alpha gives the same float plan whichever call came first
    by_int = same_frequency_plan(2, 1, 0, 0, 1)
    assert by_int is same_frequency_plan(2, 1.0, 0, 0, 1)
    assert isinstance(by_int.alpha, float)
    assert json.loads(json.dumps(by_int.to_json_obj()))["alpha"] == 1.0


def test_evaluations_and_witness_blocks_are_read_only():
    plan = same_frequency_plan(3, 0.5, -1, 0, 1)
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
