"""Pure-state evaluation, witness indices, separation, coincidence."""

import collections
import dataclasses
import hashlib
import json
import math
import random
import re
import struct
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import jac_fn_eval, unit
from polyberg import integration, purestates
from polyberg.gammaseq import (MatrixSeq, block_order, frequencies, gamma_matrix,
                               gamma_sequence, pack_blocks)
from polyberg.purestates import (
    NotSeparableError,
    closure_gap_witness,
    coincidence_pair,
    eval_state,
    eval_state_integral,
    finite_state,
    limit_state,
    separate,
    separation,
)
from polyberg.special_fn import jacobi_recurrence
from polyberg.symbols import (
    const_symbol,
    indicator_symbol,
    make_gp,
    poly_t_symbol,
    symbol_to_json_obj,
)
from polyberg.verify import coincidence_gap, two_path_gap


def test_state_validation():
    with pytest.raises(ValueError):
        finite_state(0, [1.0, 1.0])  # not unit norm
    s = finite_state(2, [1.0, 0.0, 0.0])
    assert s.xi == 2 and not s.is_limit
    assert limit_state().is_limit


def test_state_vector_must_be_finite():
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [1.0, complex(0.0, np.nan)]):
        with pytest.raises(ValueError, match="must be finite"):
            finite_state(0, bad)


def test_same_pure_state():
    # equal as functionals: separation refuses them as identical
    u = unit([1.0, 1.0])
    for s1, s2 in ((finite_state(0, u), finite_state(0, 1j * u)), (limit_state(), limit_state())):
        with pytest.raises(NotSeparableError, match="identical pure states"):
            separation(s1, s2, 2, 0.5)
    for s1, s2 in ((finite_state(0, u), finite_state(1, u)), (limit_state(), finite_state(0, u))):
        separation(s1, s2, 2, 0.5)


def test_pure_state_equality_is_identity():
    # the dataclass compared the u arrays, so == and `in` raised
    s, t = finite_state(0, [1, 0]), finite_state(0, [1, 0])
    assert (s == t) is False and (s == s) is True
    assert s in [t, s] and t not in [s]
    assert limit_state() != limit_state()


def test_eval_state_const_and_limits():
    seq = gamma_sequence(const_symbol(3.0), 2, 0.0, 4)
    assert eval_state(finite_state(1, unit([1, 1])), seq) == pytest.approx(3.0)
    assert eval_state(limit_state(), seq) == 3.0
    ind = gamma_sequence(indicator_symbol(0.5), 2, 0.0, 4)
    assert eval_state(limit_state(), ind) == 0.0


def test_eval_state_frozen_indicator_values():
    seq = gamma_sequence(indicator_symbol(0.5), 1, 0.0, 4)
    assert eval_state(finite_state(1, [1.0]), seq) == pytest.approx(1.0 / 16.0)
    assert eval_state_integral(2, [1, 0, 0], indicator_symbol(0.5), 3, 0.0) == (
        pytest.approx(1.0 / 64.0, rel=1e-12)
    )


def test_eval_state_errors():
    seq = gamma_sequence(indicator_symbol(0.5), 2, 0.0, 2)
    with pytest.raises(IndexError):
        eval_state(finite_state(5, unit([1, 1])), seq)
    with pytest.raises(ValueError):
        eval_state(finite_state(0, [1.0]), seq)
    # a sequence without a scalar limit cannot be made, so the limit state
    # always has a value
    with pytest.raises(ValueError, match="needs its scalar limit"):
        dataclasses.replace(gamma_sequence(poly_t_symbol([1.0]), 2, 0.0, 2), scalar_limit=None)


def _form_with_matmul(s, seq):
    # eval_state's arithmetic before it moved from b @ u to b.dot(u)
    b, u = seq.block(s.xi), s.u
    val = complex(np.vdot(u, b @ u))
    return val.real if abs(val.imag) < 1e-14 * max(1.0, abs(val)) else val


def test_eval_state_dot_is_bit_identical_to_matmul(rng):
    for n, alpha in ((2, 0.0), (3, 1.0), (4, 0.5)):
        real = gamma_sequence(indicator_symbol(0.7), n, alpha, 5)
        seqs = (real, 1j * real + gamma_sequence(make_gp(n + 1, alpha), n, alpha, 5))
        for seq in seqs:
            for xi in frequencies(n, 5):  # negative frequencies included
                d = min(n + xi, n)
                for u in (rng.normal(size=d), rng.normal(size=d) + 1j * rng.normal(size=d)):
                    s = finite_state(xi, unit(u))
                    got, want = eval_state(s, seq), _form_with_matmul(s, seq)
                    assert type(got) is type(want) and got == want, (n, xi)


def test_two_path_agreement():
    rng = random.Random(0)
    for n in (2, 4):
        assert two_path_gap(rng, n, (0.0, 1.0, 2.5), 5, 34) < 1e-12


def test_state_integral_matches_density_quadrature(rng):
    # independent route for the integral representation: evaluate the
    # squared combination of weighted functions pointwise and integrate
    # over [0, s^2] with Simpson on a fine grid
    from polyberg.jacobi import JacobiParams

    s = 0.5
    for n, alpha, xi in [(3, 0.0, 2), (2, 1.0, 0), (3, 1.0, 4)]:
        d = min(n + xi, n)
        u = unit(rng.normal(size=d) + 1j * rng.normal(size=d))
        ts = np.linspace(0.0, s * s, 40001)
        f = np.zeros_like(ts, dtype=complex)
        for j in range(d):
            f += u[j] * jac_fn_eval(JacobiParams(alpha, float(xi), j), ts)
        dens = np.abs(f) ** 2
        h = ts[1] - ts[0]
        simpson = h / 3.0 * (
            dens[0] + dens[-1] + 4.0 * dens[1:-1:2].sum() + 2.0 * dens[2:-1:2].sum()
        )
        got = eval_state_integral(xi, u, indicator_symbol(s), n, alpha)
        assert abs(got - simpson) < 1e-10


def test_state_positivity_and_norm_bound(rng):
    a = indicator_symbol(0.7)
    seq = gamma_sequence(a, 3, 0.5, 6)
    for _ in range(20):
        xi = int(rng.integers(-2, 7))
        d = min(3 + xi, 3)
        u = unit(rng.normal(size=d))
        val = eval_state(finite_state(xi, u), seq)
        assert val >= -1e-10
        assert abs(val) <= 1.0 + 1e-9


def _witness_indices(u, v):
    # the (p, q) that separation's same-frequency branch reads from
    # _state_gap, or None for a pair within PROPORTIONAL_TOL (refused as
    # identical states)
    gap, p, q = purestates._state_gap(np.asarray(u, dtype=complex).tolist(),
                                      np.asarray(v, dtype=complex).tolist())
    return None if gap <= purestates.PROPORTIONAL_TOL else (p, q)


def test_witness_indices_examples():
    assert _witness_indices([1, 0], [0, 1]) == (0, 0)
    assert _witness_indices(unit([1, 1]), unit([1, -1])) == (0, 1)
    assert _witness_indices([1, 0], unit([1, 1])) == (0, 0)


def test_witness_indices_guarantee(rng):
    for _ in range(50):
        d = int(rng.integers(2, 6))
        u = unit(rng.normal(size=d) + 1j * rng.normal(size=d))
        v = unit(rng.normal(size=d) + 1j * rng.normal(size=d))
        p, q = _witness_indices(u, v)
        assert abs(u[p] * np.conj(u[q]) - v[p] * np.conj(v[q])) > 1e-10


def test_witness_indices_proportional_error():
    u = unit([1, 2, 3])
    assert _witness_indices(u, np.exp(0.3j) * u) is None
    with pytest.raises(NotSeparableError, match="identical pure states"):
        separation(finite_state(2, u), finite_state(2, np.exp(0.3j) * u), 3, 0.5)


def test_witness_indices_nearly_proportional_error():
    # equal moduli, phases (0, t, -t): max |uu* - vv*| is |D_12| = 2 sin(t) / 3,
    # which passes the proportionality tolerance at t = 1.5e-10
    u = np.ones(3) / np.sqrt(3.0)
    for theta in (1e-11, 1.4e-10):
        v = u * np.exp(1j * np.array([0.0, theta, -theta]))
        assert _witness_indices(u, v) is None
    for theta in (1.6e-10, 1e-6):
        v = u * np.exp(1j * np.array([0.0, theta, -theta]))
        assert _witness_indices(u, v) == (1, 2)


def _state_gap_at(u, v, p, q):
    return abs(u[p] * np.conj(u[q]) - v[p] * np.conj(v[q]))


def _witness_indices_loop(u, v):
    # the first (p <= q) maximising |u_p conj(u_q) - v_p conj(v_q)|, by loops
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    best, pq = -1.0, None
    for p in range(len(u)):
        for q in range(p, len(u)):
            gap = _state_gap_at(u, v, p, q)
            if gap > best:
                best, pq = gap, (p, q)
    return None if best <= purestates.PROPORTIONAL_TOL else pq


_PARTS = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)


@st.composite
def _state_vector_pairs(draw):
    # (u, v) of dimension 1..6: u real or complex, v independent, nearly
    # proportional (phases off by 1e-12 .. 1e-6) or a phase multiple of u
    d = draw(st.integers(1, 6))

    def vector(real):
        w = np.array(draw(_PARTS)[:d])
        if not real:
            w = w + 1j * np.array(draw(_PARTS)[:d])
        assume(np.linalg.norm(w) > 1e-3)
        return w / np.linalg.norm(w)

    u = vector(draw(st.booleans()))
    kind = draw(st.sampled_from(("independent", "near", "phase")))
    if kind == "independent":
        v = vector(draw(st.booleans()))
    elif kind == "near":
        theta = 10.0 ** draw(st.floats(-12.0, -6.0))
        v = u * np.exp(1j * theta * np.array(draw(_PARTS)[:d]))
    else:
        v = np.exp(1j * draw(st.floats(0.0, 2.0 * np.pi))) * u
    return u, v


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_state_vector_pairs())
def test_state_gap_is_the_first_maximiser_of_the_loop_reference(pair):
    # the scalar pass reads only p <= q: it still sees max |D| over the
    # whole matrix, and it picks the loop reference's (p, q)
    u, v = pair
    cu, cv = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    gap, p, q = purestates._state_gap(cu.tolist(), cv.tolist())
    whole = max(_state_gap_at(cu, cv, j, k) for j in range(len(u)) for k in range(len(u)))
    assert p <= q
    assert gap >= whole * (1.0 - 1e-12)
    assert gap == _state_gap_at(cu, cv, p, q)
    assert _witness_indices(u, v) == _witness_indices_loop(u, v)
    if gap > purestates.PROPORTIONAL_TOL:
        assert _witness_indices(u, v) == (p, q)


def test_witness_indices_matches_the_loop_reference(rng):
    cases = []
    for d in range(1, 7):
        eye = np.eye(d)
        cases += [(eye[j], eye[k]) for j in range(d) for k in range(d)]
        cases += [(unit(eye[j] + eye[k]), unit(eye[j] - eye[k]))
                  for j in range(d) for k in range(d) if j != k]
        for _ in range(20):
            u = unit(rng.normal(size=d) + 1j * rng.normal(size=d))
            cases += [(u, unit(rng.normal(size=d) + 1j * rng.normal(size=d))),
                      (u, unit(rng.normal(size=d))), (unit(u.real + 0.5), u)]
            # nearly proportional: phases off by about the tolerance
            for theta in (1e-11, 5e-11, 1.6e-10, 1e-9, 1e-6):
                v = u * np.exp(1j * theta * rng.normal(size=d))
                cases += [(u, v), (u, np.exp(0.7j) * u), (u, unit(v + theta * eye[-1]))]
        if d >= 3:
            # equal moduli, phases (0, t, -t): max |uu* - vv*| = 2 sin(t) / d
            # passes the tolerance from t = d * 5e-11 on
            flat = np.ones(d) / np.sqrt(d)
            phases = np.zeros(d)
            phases[1:3] = (1.0, -1.0)
            cases += [(flat, flat * np.exp(1j * t * phases))
                      for t in np.linspace(1.2e-10, 2.2e-10, 21)]
    kinds = collections.Counter()
    for u, v in cases:
        got, want = _witness_indices(u, v), _witness_indices_loop(u, v)
        if isinstance(got, tuple) and isinstance(want, tuple) and got != want:
            # a true tie that rounding broke the other way (for d = 2,
            # |D_00| = |D_11| for any pair of unit vectors)
            assert got[0] <= got[1], (u, v)
            gaps = [_state_gap_at(np.asarray(u, complex), np.asarray(v, complex), *pq)
                    for pq in (got, want)]
            assert abs(gaps[0] - gaps[1]) <= 1e-15, (u, v)
        else:
            assert got == want, (u, v)
        kinds["same" if want is None else "pp" if want[0] == want[1] else "pq"] += 1
    assert set(kinds) == {"pp", "pq", "same"}, kinds


@pytest.mark.parametrize("t", [1e-7, 1.4e-5, 1e-4, 1e-3])
def test_separate_pairs_at_a_small_angle(t):
    # max |uu* - vv*| = sin(2t) / 2 at (0, 1): the sym combination of E_01
    # takes the values 0 and sin(2t)
    u, v = [1.0, 0.0], [np.cos(t), np.sin(t)]
    _, vals, recipe = purestates.separation(finite_state(0, u), finite_state(0, v), 2, 0.0)
    assert recipe["unit"]["combination"] == "sym"
    assert abs(vals[1] - vals[0]) == pytest.approx(np.sin(2 * t), rel=1e-9)


def test_separation_gap_is_at_least_the_state_difference(rng):
    # the chosen unit sees the largest entry of D = uu* - vv*: E_pp with
    # gap |D_pp|, or E_pq's better combination with gap >= sqrt(2) |D_pq|
    for _ in range(60):
        n = int(rng.integers(2, 5))
        xi = int(rng.integers(-n + 2, 4))
        d = min(n + xi, n)
        u = unit(rng.normal(size=d) + 1j * rng.normal(size=d))
        v = unit(rng.normal(size=d) + 1j * rng.normal(size=d) * rng.integers(0, 2))
        alpha = float(rng.choice([0.0, 0.5]))
        _, vals, _ = purestates.separation(finite_state(xi, u), finite_state(xi, v), n, alpha)
        diff = np.abs(np.outer(u, u.conj()) - np.outer(v, v.conj())).max()
        assert abs(vals[0] - vals[1]) >= diff * (1 - 1e-9), (n, xi, alpha, u, v)


def test_state_integral_builds_one_block(monkeypatch, rng):
    calls = []
    real = integration._float_blocks

    def counted(a, alpha, xis, d):
        calls.append((xis, d))
        return real(a, alpha, xis, d)

    monkeypatch.setattr(integration, "_float_blocks", counted)
    u = unit(rng.normal(size=4) + 1j * rng.normal(size=4))
    eval_state_integral(1, u, indicator_symbol(0.7), 4, 0.5)
    assert calls == [(range(1, 2), 4)]


def test_separate_same_frequency_basis():
    s1 = finite_state(0, [1, 0])
    s2 = finite_state(0, [0, 1])
    witness, vals = separate(s1, s2, 2, 0.0)
    assert vals == (1.0, 0.0)
    assert np.allclose(witness.block(0), np.diag([1.0, 0.0]), atol=1e-10)


def test_separate_same_frequency_complex(rng):
    u = unit([1, 1j])
    v = unit([1, -1j])
    _, vals = separate(finite_state(3, u), finite_state(3, v), 2, 0.5)
    assert abs(vals[0] - vals[1]) > 0.5


def test_separate_infinity():
    s_inf = limit_state()
    s_fin = finite_state(2, [1, 0, 0])
    witness, vals = separate(s_inf, s_fin, 3, 0.0)
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(1.0 / 64.0, rel=1e-12)
    # reversed order gives reversed values
    _, vals_r = separate(s_fin, s_inf, 3, 0.0)
    assert vals_r[0] == pytest.approx(1.0 / 64.0, rel=1e-12) and vals_r[1] == 0.0


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_cached_limit_witness_equals_the_indicator_sequence(n, alpha):
    ind = indicator_symbol(0.5)
    for xi in range(-n + 1, 7):
        fin = finite_state(xi, np.eye(min(n + xi, n))[0])
        first, _ = separate(limit_state(), fin, n, alpha)
        second, _ = separate(fin, limit_state(), n, alpha)
        want = gamma_sequence(ind, n, alpha, max(xi, 0))
        assert np.array_equal(first.blocks, want.blocks), xi
        assert first.scalar_limit == want.scalar_limit and first.symbol == ind
        assert first is second
        assert not first.blocks.flags.writeable and not second.blocks.flags.writeable
        for name in ("scalar_limit", "blocks"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(second, name, None)


def _clear_separation_caches():
    for val in vars(purestates).values():
        if hasattr(val, "cache_clear"):
            val.cache_clear()


def test_separations_integrate_nothing_and_certify_each_frequency_once(monkeypatch):
    # one sweep up the frequencies: same-frequency pairs (an off-diagonal
    # and a diagonal unit) and cross-frequency pairs at every xi.  No
    # witness integrates a block, and every frequency's corner
    # certificate is made once, whichever pairs read it
    _clear_separation_caches()
    real, calls = integration.entry_blocks, []

    def spy(a, alpha, xis, d):
        calls.append((a, xis))
        return real(a, alpha, xis, d)

    for name, mod in list(sys.modules.items()):
        if name.startswith("polyberg."):
            for attr, val in list(vars(mod).items()):
                if val is real:
                    monkeypatch.setattr(mod, attr, spy)
    n, alpha = 3, 0.5
    e0, e1, e2 = np.eye(n)
    for xi in range(31):
        separate(finite_state(xi, e0), finite_state(xi, e1), n, alpha)
        separate(finite_state(xi, e0), finite_state(xi, unit(e0 + e2)), n, alpha)
        for lo in range(-n + 1, xi):
            separate(finite_state(lo, np.eye(min(n + lo, n))[0]), finite_state(xi, e1), n, alpha)
    assert calls == []
    info = purestates._corner_certificate.cache_info()
    assert info.misses == 31 and info.currsize == 31
    # a cold pair far up: one certificate, still no block
    _clear_separation_caches()
    separate(finite_state(10**4, [1.0, 0.0]), finite_state(10**4, [0.0, 1.0]), 2, alpha)
    assert calls == [] and purestates._corner_certificate.cache_info().misses == 1


def test_separate_refuses_bad_alpha_before_any_cache():
    s1, s2 = limit_state(), finite_state(0, [1.0, 0.0])
    caches = (purestates._symbol_witness, purestates._unit_witness,
              purestates._corner_certificate)
    before = [c.cache_info() for c in caches]
    for alpha in (float("nan"), -1.5, -1.0, float("inf")):
        for pair in ((s1, s2), (s2, finite_state(0, [0.0, 1.0]))):
            with pytest.raises(ValueError, match="alpha must exceed -1"):
                separate(*pair, 2, alpha)
    assert [c.cache_info() for c in caches] == before


def test_separate_refuses_wrong_dimension_before_any_cache():
    # a vector longer than its frequency's block: same frequency with
    # p = q and p != q, two frequencies (either one too long) and the
    # limit state; each is refused with eval_state's wording
    r = np.sqrt(0.5)
    pairs = [
        (finite_state(1, [1.0, 0.0, 0.0]), finite_state(1, [0.0, 0.0, 1.0])),
        (finite_state(1, [r, 0.0, r]), finite_state(1, [r, 0.0, -r])),
        (finite_state(0, [1.0, 0.0]), finite_state(2, [0.0, 0.0, 1.0])),
        (finite_state(-1, [r, r]), finite_state(1, [0.0, 1.0])),
        (limit_state(), finite_state(3, [0.0, 0.0, 1.0])),
    ]
    caches = (purestates._symbol_witness, purestates._unit_witness,
              purestates._corner_certificate)
    before = [c.cache_info() for c in caches]
    message = "state vector has dimension [23], block has order [12]$"
    for s1, s2 in pairs:
        for pair in ((s1, s2), (s2, s1)):
            with pytest.raises(ValueError, match=message):
                separate(*pair, 2, 0.0)
    assert [c.cache_info() for c in caches] == before


def test_separation_refuses_an_infinity_witness_for_two_finite_states():
    # the witness is read only for a pair with the limit state; it is
    # refused before any cache, and before the coincidence families
    caches = (purestates._symbol_witness, purestates._unit_witness,
              purestates._corner_certificate)
    before = [c.cache_info() for c in caches]
    e0 = [1.0, 0.0]
    pairs = [
        (finite_state(0, e0), finite_state(2, e0)),
        (finite_state(0, e0), finite_state(0, [0.0, 1.0])),
        (finite_state(0, e0), finite_state(0, e0)),
        coincidence_pair(2, 0.0),
    ]
    message = "^--symbol is the witness of a limit-state pair; neither state is inf$"
    for s1, s2 in pairs:
        with pytest.raises(ValueError, match=message):
            separation(s1, s2, 2, 0.0, infinity_witness=indicator_symbol(0.5))
    assert [c.cache_info() for c in caches] == before


def _rotated(u, t, rng):
    # a unit vector at angle t from u (0 in dimension 1), times a random phase
    if len(u) == 1:
        return np.exp(2j * np.pi * rng.random()) * u
    w = rng.normal(size=len(u)) + 1j * rng.normal(size=len(u))
    w = unit(w - np.vdot(u, w) * u)
    return np.exp(2j * np.pi * rng.random()) * (np.cos(t) * u + np.sin(t) * w)


def test_documented_coincidence_answers_as_the_full_state_test(rng):
    # the |D_00| pre-filter never changes the answer of the max|D| test,
    # at angles on both sides of the tolerance, around e0 and around the
    # alpha-vector
    def same(u, v):
        return purestates._state_gap(u.tolist(), v.tolist())[0] <= purestates.PROPORTIONAL_TOL

    answers = collections.Counter()
    for n in (2, 3, 4):
        for alpha in (0.0, 0.5, 2.5):
            u_star = np.asarray(purestates._coincidence_vector(n, alpha), dtype=complex)
            frames = [(0, 2, u_star, np.eye(n)[0].astype(complex))]
            frames += [(-eta, eta, np.eye(n - eta)[0].astype(complex),
                        np.eye(n)[0].astype(complex)) for eta in range(1, n)]
            for lo_xi, hi_xi, lo_u, hi_u in frames:
                for t in np.logspace(-12, -6, 25):
                    for t_lo, t_hi in ((t, 0.0), (0.0, t), (t, t)):
                        u = _rotated(lo_u, t_lo, rng)
                        v = _rotated(hi_u, t_hi, rng)
                        want = same(u, lo_u) and same(v, hi_u)
                        got = purestates._documented_coincidence(
                            lo_xi, finite_state(lo_xi, u).u.tolist(),
                            hi_xi, finite_state(hi_xi, v).u.tolist(), n, alpha)
                        assert (got is not None) == want, (n, alpha, lo_xi, t_lo, t_hi)
                        answers[want] += 1
    assert answers[True] > 100 and answers[False] > 100


def _hermitian_value(s, witness):
    # the state value separation reports: the real part of eval_state
    # (in its b @ u form)
    val = _form_with_matmul(s, witness)
    return val.real if isinstance(val, complex) else val


def test_separation_values_are_the_state_values_of_the_witness(rng):
    # sym and skew units, diagonal units and two frequencies, at negative
    # and positive frequencies, with real and complex vectors
    n, alpha = 3, 0.5
    combinations = collections.Counter()
    for xi in range(-n + 1, 4):
        d = min(n + xi, n)
        eye = np.eye(d)
        pairs = []
        if d > 1:
            pairs += [(finite_state(xi, eye[0]), finite_state(xi, eye[-1]))]
            pairs += [(finite_state(xi, unit(eye[0] + c * eye[1])),
                       finite_state(xi, unit(eye[0] - c * eye[1]))) for c in (1.0, 1j)]
            pairs += [(finite_state(xi, unit(rng.normal(size=d) + 1j * rng.normal(size=d))),
                       finite_state(xi, unit(rng.normal(size=d) + 1j * rng.normal(size=d))))
                      for _ in range(4)]
        if xi < 3:
            pairs += [(finite_state(xi, unit(rng.normal(size=d) + 1j * rng.normal(size=d))),
                       finite_state(3, unit(rng.normal(size=n) + 1j * rng.normal(size=n))))]
        for s1, s2 in pairs:
            witness, vals, recipe = purestates.separation(s1, s2, n, alpha)
            combinations[recipe["unit"].get("combination", "diagonal")] += 1
            want = (_hermitian_value(s1, witness), _hermitian_value(s2, witness))
            assert all(type(v) is float for v in vals)
            assert vals == want, (s1, s2)
    assert set(combinations) == {"diagonal", "sym", "skew"}, combinations


def test_unit_witnesses_are_exact_units_at_their_frequency():
    # every record of the grid: each witness is the exact unit combination
    # at xi, E_pp, E_pq + E_qp or i (E_pq - E_qp), with zero blocks at
    # every other frequency (above a negative xi too) and limit 0, real
    # but for the skew one, whose held block is its block at xi
    for n in range(1, 6):
        for alpha in (0.0, 0.5, 1.0, 2.5):
            for xi in range(-n + 1, 9):
                d = block_order(n, xi)
                for p in range(d):
                    for q in range(p, d):
                        cert, witnesses, skew = purestates._unit_witness(n, alpha, xi, p, q)
                        assert cert == purestates._corner_certificate(n, alpha, xi)
                        units = [np.zeros((d, d)), np.zeros((d, d), complex)]
                        units[0][p, q] = units[0][q, p] = 1.0
                        units[1][p, q], units[1][q, p] = 1j, -1j
                        assert len(witnesses) == (1 if p == q else 2)
                        for w, want in zip(witnesses, units):
                            assert w.xi_max == max(xi, 0) and w.scalar_limit == 0.0
                            assert w.blocks.dtype == want.dtype
                            for x in frequencies(n, w.xi_max):
                                block = w.block(x)
                                assert np.array_equal(block, want if x == xi else 0 * block)
                        if p == q:
                            assert skew is None
                        else:
                            assert skew.base is witnesses[1].blocks.base
                            assert np.array_equal(skew, witnesses[1].block(xi))


def _bits(value):
    # the state value as separation reports it (the real part), in bytes
    return struct.pack("<d", value.real if isinstance(value, complex) else value)


def test_separation_values_are_eval_state_bit_for_bit(rng):
    # same-frequency pairs (p = q and p != q), cross pairs, among them
    # every lower frequency against the top one, whose block there is a
    # zero mark, and limit pairs
    kinds = collections.Counter()
    for n in range(1, 6):
        for alpha in (0.0, 0.5, 1.0, 2.5):
            states = []
            for xi in range(-n + 1, 9):
                d = block_order(n, xi)
                eye = np.eye(d)
                states += [finite_state(xi, eye[0]), finite_state(xi, eye[-1]),
                           finite_state(xi, unit(rng.normal(size=d) + 1j * rng.normal(size=d)))]
                if d > 1:
                    states += [finite_state(xi, unit(eye[0] + c * eye[1])) for c in (1, -1, 1j)]
            states.append(limit_state())
            for i, s1 in enumerate(states):
                for s2 in states[i + 1:]:
                    try:
                        witness, vals, recipe = separation(s1, s2, n, alpha)
                    except NotSeparableError:
                        continue
                    kind = ("limit" if s1.xi is None or s2.xi is None
                            else "cross" if s1.xi != s2.xi
                            else recipe["unit"].get("combination", "diagonal"))
                    kinds[kind] += 1
                    for s, val in zip((s1, s2), vals):
                        assert type(val) is float
                        assert _bits(val) == _bits(eval_state(s, witness)), (n, alpha, s1, s2)
    assert set(kinds) == {"diagonal", "sym", "skew", "cross", "limit"}, kinds


def test_a_warm_off_diagonal_separation_does_no_sequence_arithmetic(monkeypatch):
    s1, s2 = finite_state(-1, unit([1.0, 1j])), finite_state(-1, unit([1.0, -1j]))
    first, vals, recipe = purestates.separation(s1, s2, 3, 0.25)
    assert recipe["unit"]["combination"] == "skew"
    ops = collections.Counter()
    for name in ("__add__", "__mul__", "__rmul__", "__matmul__"):
        real = getattr(MatrixSeq, name)

        def counted(self, other, _name=name, _real=real):
            ops[_name] += 1
            return _real(self, other)

        monkeypatch.setattr(MatrixSeq, name, counted)
    second, again, _ = purestates.separation(s1, s2, 3, 0.25)
    assert second is first and again == vals
    assert not ops
    # the recipe's units, E_pq and E_qp at xi, combined by the sequence
    # arithmetic the counter sees
    xi, p, q = (recipe["unit"][key] for key in ("xi", "p", "q"))
    e_pq, e_qp = (_unit_sequence(3, 0.25, xi, j, k) for j, k in ((p, q), (q, p)))
    assert np.array_equal((1j * (e_pq + (-1.0) * e_qp)).blocks, first.blocks)
    assert ops


def _unit_sequence(n, alpha, xi, p, q):
    # E_pq at xi, zero elsewhere and at infinity, up to max(xi, 0)
    blocks = [np.zeros((block_order(n, x),) * 2) for x in frequencies(n, max(xi, 0))]
    blocks[xi + n - 1][p, q] = 1.0
    return MatrixSeq(n, alpha, pack_blocks(n, blocks), 0.0)


def _outcome(fn, *args, **kwargs):
    # ("ok", result) or ("refused", (exception type, text))
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as exc:  # NotSeparableError included
        return "refused", (type(exc), str(exc))


def _value_bits(vals):
    return [struct.pack("<dd", complex(v).real, complex(v).imag) for v in vals]


def test_separate_is_separation_without_its_recipe(rng):
    # drawn n <= 5 and alpha: separate gives separation's witness object
    # and value bits, or its refusal text, and a returned recipe may be
    # changed without any effect on the next call's
    kinds = collections.Counter()
    for _ in range(10):
        n, alpha = int(rng.integers(1, 6)), float(rng.choice([0.0, 0.5, 2.5]))
        xis = {-n + 1, 0, 1, 2, *(int(x) for x in rng.integers(3, 9, size=2))}
        states = [limit_state()]
        for xi in sorted(xis | ({-1} if n > 1 else set())):
            d = block_order(n, xi)
            eye = np.eye(d)
            states += [finite_state(xi, eye[0]), finite_state(xi, eye[-1]),
                       finite_state(xi, unit(rng.normal(size=d) + 1j * rng.normal(size=d)))]
            if d > 1:
                states += [finite_state(xi, unit(eye[0] + c * eye[1])) for c in (1, -1, 1j, -1j)]
        if n >= 2:
            states += coincidence_pair(n, alpha)
        states.append(finite_state(1, unit(np.ones(n + 1))))  # one entry too many
        calls = [((s1, s2, n, alpha), {}) for i, s1 in enumerate(states) for s2 in states[i:]]
        calls += [((states[0], s, n, alpha), {"infinity_witness": poly_t_symbol([0.5, 1.0])})
                  for s in states[1:4]]
        calls += [((states[1], states[2], n, alpha), {"infinity_witness": indicator_symbol(0.5)}),
                  ((states[1], states[2], n, float("nan")), {})]
        for args, kwargs in calls:
            full = _outcome(separation, *args, **kwargs)
            short = _outcome(separate, *args, **kwargs)
            if full[0] == "refused":
                assert short == full, args
                kinds["refused"] += 1
                continue
            witness, vals, recipe = full[1]
            assert short[0] == "ok" and short[1][0] is witness, args
            assert _value_bits(short[1][1]) == _value_bits(vals), args
            s1, s2 = args[:2]
            kinds["limit" if "symbol" in recipe else "cross" if s1.xi != s2.xi
                  else recipe["unit"].get("combination", "diagonal")] += 1
            before = repr(recipe)
            for inner in recipe.values():
                if isinstance(inner, dict):
                    inner["p"] = -1
                    inner.pop("corner")
            recipe["symbol"] = None
            assert repr(separation(*args, **kwargs)[2]) == before, args
    assert set(kinds) == {"limit", "cross", "diagonal", "sym", "skew", "refused"}, kinds


def test_the_unit_index_is_the_first_largest_entry_and_the_first_largest_gap(rng):
    # exact ties included (basis pairs, unit(e_j +- e_k), entries +-x and
    # +-ix): the cross-pair p is numpy's argmax of |u|, and _state_gap's
    # (p, q) is the first maximum in row order of a brute-force |D| over
    # p <= q.  (Moduli that differ by a rounding may order differently:
    # numpy's vectorised complex abs and Python's abs can differ in the
    # last bit.)
    vectors = collections.defaultdict(list)
    for d in range(1, 6):
        eye = np.eye(d)
        vectors[d] += [eye[j] for j in range(d)]
        vectors[d] += [unit(eye[j] + c * eye[k]) for j in range(d) for k in range(j + 1, d)
                       for c in (1, -1, 1j)]
        vectors[d] += [unit([1, 1j, -1, -1j, 1][:d]), unit([1j, 1, -1j, -1, 1j][:d])]
        vectors[d] += [unit(rng.normal(size=d) + 1j * rng.normal(size=d)) for _ in range(4)]
    ties = collections.Counter()
    for d, vecs in vectors.items():
        lo = finite_state(0, unit(np.ones(d)))
        for u in vecs:
            _, _, recipe = separation(lo, finite_state(1, u), d, 0.5)
            want = int(np.abs(u).argmax())
            assert recipe["unit"]["p"] == recipe["unit"]["q"] == want, u
            ties["entry"] += np.sum(np.abs(u) == np.abs(u)[want]) > 1
        for u in vecs:
            for v in vecs:
                uu, vv = u.tolist(), v.tolist()
                cells = [(j, k) for j in range(d) for k in range(j, d)]
                gaps = [abs(uu[j] * uu[k].conjugate() - vv[j] * vv[k].conjugate()) for j, k in cells]
                gap, p, q = purestates._state_gap(uu, vv)
                assert (gap, (p, q)) == (max(gaps), cells[gaps.index(max(gaps))]), (u, v)
                ties["gap"] += gaps.count(max(gaps)) > 1
    assert ties["entry"] > 10 and ties["gap"] > 10, ties


def _separation_grid_digest():
    # SHA-256 of (value bits, recipe JSON in its key order, refusal text)
    # over every pair of a seeded c07-style grid, n <= 4, alpha in {0, 1}:
    # basis vectors, unit(e_j +- e_k) and one random complex vector per
    # frequency up to 6, the limit state and the documented (0, 2) pair
    digest, rng = hashlib.sha256(), np.random.default_rng(40)
    for n in range(1, 5):
        for alpha in (0.0, 1.0):
            states = [limit_state()]
            for xi in range(-n + 1, 7):
                d = block_order(n, xi)
                eye = np.eye(d)
                vecs = [eye[j] for j in range(d)]
                vecs += [unit(eye[j] + c * eye[k]) for j in range(d) for k in range(j + 1, d)
                         for c in (1, -1)]
                vecs.append(unit(rng.normal(size=d) + 1j * rng.normal(size=d)))
                states += [finite_state(xi, v) for v in vecs]
            states += coincidence_pair(n, alpha) if n >= 2 else ()
            for i, s1 in enumerate(states):
                for s2 in states[i + 1:]:
                    try:
                        _, vals, recipe = separation(s1, s2, n, alpha)
                    except NotSeparableError as exc:
                        digest.update(f"refused: {exc}\n".encode())
                        continue
                    digest.update(b"".join(_value_bits(vals)))
                    digest.update(json.dumps(recipe, default=symbol_to_json_obj).encode())
    return digest.hexdigest()


def test_separation_grid_outcomes_are_pinned():
    # recorded before separation moved to Python scalars; a change in any
    # value bit, recipe or refusal text changes the digest
    assert _separation_grid_digest() == "0992d6677e44e5052c09775bcea8af265cb15d411ed3579303800e04a252be4a"


def test_separate_cross_frequency():
    s1 = finite_state(0, unit([1, 1]))
    s2 = finite_state(2, [1, 0])
    witness, vals = separate(s1, s2, 2, 0.0)
    assert vals[0] == pytest.approx(0.0, abs=1e-12)
    assert vals[1] == pytest.approx(1.0, rel=1e-10)


def test_separate_cross_negative():
    s1 = finite_state(-1, [1.0])
    s2 = finite_state(1, [0.0, 1.0])
    _, vals = separate(s1, s2, 2, 1.0)
    assert vals[0] == pytest.approx(0.0, abs=1e-10)
    assert vals[1] == pytest.approx(1.0, rel=1e-8)


def test_separate_identical_states_refused():
    u = unit([1, 1])
    with pytest.raises(NotSeparableError):
        separate(finite_state(0, u), finite_state(0, -u), 2, 0.0)
    with pytest.raises(NotSeparableError):
        separate(limit_state(), limit_state(), 2, 0.0)


def test_coincidence_pair_values():
    s1, s2 = coincidence_pair(2, 0.0)
    assert np.allclose(s1.u, [np.sqrt(3.0) / 2.0, 0.5])
    assert np.allclose(s2.u, [1.0, 0.0])
    ind = indicator_symbol(0.5)
    v1 = eval_state_integral(s1.xi, s1.u, ind, 2, 0.0)
    v2 = eval_state_integral(s2.xi, s2.u, ind, 2, 0.0)
    assert v2 == pytest.approx(1.0 / 64.0, rel=1e-12)
    assert abs(v1 - v2) < 1e-12
    with pytest.raises(ValueError):
        coincidence_pair(1, 0.0)


def test_coincidence_pair_agrees_on_many_symbols(rng):
    for n in (2, 3):
        for alpha in (0.0, 0.5, 2.5):
            symbols = [
                indicator_symbol(0.3),
                const_symbol(2.0),
                make_gp(1, alpha),
                make_gp(4, alpha),
                poly_t_symbol(list(rng.uniform(-1, 1, size=7))),
            ]
            assert coincidence_gap(n, alpha, symbols) < 1e-10, (n, alpha)


def test_coincidence_function_identity():
    # the quadratic-form densities of the two states coincide pointwise
    from polyberg.jacobi import JacobiParams

    ts = np.linspace(0.001, 0.999, 301)
    for alpha in (0.0, 1.0, 2.5):
        s1, s2 = coincidence_pair(3, alpha)
        f1 = s1.u[0].real * jac_fn_eval(
            JacobiParams(alpha, 0.0, 0), ts
        ) + s1.u[1].real * jac_fn_eval(JacobiParams(alpha, 0.0, 1), ts)
        f2 = jac_fn_eval(JacobiParams(alpha, 2.0, 0), ts)
        assert np.max(np.abs(f1 - f2)) < 1e-12


def test_submatrix_coincidence_family():
    for n, eta in [(2, 1), (3, 1), (3, 2)]:
        s1, s2 = finite_state(-eta, np.eye(n - eta)[0]), finite_state(eta, np.eye(n)[0])
        for a in (indicator_symbol(0.6), make_gp(2, 1.0)):
            v1 = eval_state_integral(s1.xi, s1.u, a, n, 1.0)
            v2 = eval_state_integral(s2.xi, s2.u, a, n, 1.0)
            assert abs(v1 - v2) < 1e-14
        with pytest.raises(NotSeparableError):
            separate(s1, s2, n, 1.0)


def test_documented_coincidences_refused_but_near_miss_separates():
    s1, s2 = coincidence_pair(3, 1.0)
    with pytest.raises(NotSeparableError):
        separate(s1, s2, 3, 1.0)
    with pytest.raises(NotSeparableError):
        separate(s2, s1, 3, 1.0)
    # a nearby but different vector pair is separable
    other = finite_state(2, unit([0.0, 1.0, 0.0]))
    _, vals = separate(s1, other, 3, 1.0)
    assert abs(vals[0] - vals[1]) > 1e-8


def test_padded_basis_pair_is_separable():
    # frequencies (-1, 1) with e_1-like vectors agree on every generating
    # sequence but are separated by a product plan
    s1 = finite_state(-1, [0.0, 1.0])
    s2 = finite_state(1, [0.0, 1.0, 0.0])
    _, vals = separate(s1, s2, 3, 0.0)
    assert vals[0] == pytest.approx(0.0, abs=1e-10)
    assert vals[1] == pytest.approx(1.0, rel=1e-8)


def test_closure_gap_witness():
    for n in (2, 3):
        for alpha in (0.0, 2.5):
            w = closure_gap_witness(n, alpha, 5)
            s1, s2 = coincidence_pair(n, alpha)
            assert eval_state(s1, w) == 0.0
            assert eval_state(s2, w) == 1.0
            assert w.scalar_limit == 0.0
            from polyberg.gammaseq import block_order, tail_deviation

            for xi in frequencies(n, 5):
                assert w.block(xi).shape == (block_order(n, xi),) * 2
            for xi in range(3, 6):
                assert tail_deviation(w, xi) == 0.0
    with pytest.raises(ValueError):
        closure_gap_witness(1, 0.0, 5)
    with pytest.raises(ValueError):
        closure_gap_witness(2, 0.0, 1)


def _dyadic_alpha(rng):
    # a dyadic alpha in (-1, 8]
    e = int(rng.integers(0, 7))
    return float(rng.integers(-(1 << e) + 1, (8 << e) + 1)) / (1 << e)


def test_corners_match_mpmath_and_a_brute_force_scan(rng):
    # the closed form within CORNER_REL_ERR of 40 digits at drawn n, dyadic
    # alpha and eta up to 10^4; the certificate's gap is the smallest
    # relative gap of a scan over every frequency up to twice xi and past
    # the peak, where the corners have fallen to a quarter of xi's (and
    # decrease strictly from _tail_start on), and a refusal is that
    # scan's gap failing
    worst = 0.0
    for _ in range(200):
        n, alpha = int(rng.integers(1, 9)), _dyadic_alpha(rng)
        xi = int(rng.choice([rng.integers(-n + 1, 40), rng.integers(-n + 1, 10**4 + 1)]))
        top = 2 * max(xi, n + int(alpha)) + 64
        etas = np.arange(-n + 1, top + 1)
        vals = purestates._corner(n, alpha, etas)
        for eta in (xi, int(rng.integers(-n + 1, top + 1))):
            with mpmath.workdps(40):
                a, x = mpmath.mpf(alpha), n + eta
                s = 2 * n + eta + a
                exact = n * (n + a) * x * (x + a) / (s * s * (s - 1) * (s + 1))
                got = purestates._corner(n, alpha, eta)
                worst = max(worst, float(abs(got - exact) / exact))
            assert got == vals[eta + n - 1]
        eta0 = purestates._tail_start(n, alpha)
        assert np.all(np.diff(vals[eta0 + n - 1:]) < 0), (n, alpha)
        assert vals[-1] < vals[xi + n - 1] / 4
        corner = vals[xi + n - 1]
        gaps = np.abs(np.delete(vals, xi + n - 1) - corner) / corner
        try:
            got = purestates._corner_certificate(n, alpha, xi)
        except NotSeparableError:
            assert gaps.min() <= purestates.CORNER_GAP_MIN, (n, alpha, xi)
        else:
            assert got == (corner, gaps.min()), (n, alpha, xi)
    assert worst <= purestates.CORNER_REL_ERR, worst


def test_corner_tail_start_is_past_the_last_rise():
    # the corners decrease strictly from eta0; a large alpha puts eta0
    # near alpha / 2 past -n, where the values still rose before
    for n in (1, 2, 8):
        for alpha in (-0.875, 0.0, 0.5, 2.75, 7.5, 100.0, 1000.0):
            eta0 = purestates._tail_start(n, alpha)
            vals = purestates._corner(n, alpha, np.arange(-n + 1, eta0 + 200))
            assert np.all(np.diff(vals[eta0 + n - 1:]) < 0)
            assert -n + 1 <= eta0 <= -n + 2 + (alpha + 2 * n) / 2
    # the largest x0 - n at alpha = 1000, n = 8, against Q's exact root
    r2 = (16 - 1000 + math.sqrt(9e6 + 32e3 + 256)) / 4
    assert purestates._tail_start(8, 1000.0) == math.ceil(r2) - 8


@pytest.mark.parametrize("n", [1, 2, 4, 8])
@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 2.5])
def test_corner_is_the_block_of_gamma_t2_minus_gamma_t_squared(n, alpha):
    # from the package's own poly_t blocks: K = gamma(t^2) - gamma(t)^2 is
    # the certificate's corner times E_(d-1,d-1), within 4 eps in every
    # entry (the entries of gamma(t) and gamma(t^2) lie in [0, 1]; forming
    # the difference costs K's corner its relative accuracy at large xi);
    # and phi_p(J) E_(d-1,d-1) phi_q(J)^T, with phi the recurrence of
    # gamma(t) run backwards from phi_(d-1) = 1, phi_d = 0, is E_pq within
    # 1e-12
    eps = np.finfo(float).eps
    t, t2 = poly_t_symbol([0.0, 1.0]), poly_t_symbol([0.0, 0.0, 1.0])
    for xi in (*range(-n + 1, 4), 25, 60, 200, 10**3, 10**4):
        d = block_order(n, xi)
        j = gamma_matrix(t, n, alpha, xi)
        k = gamma_matrix(t2, n, alpha, xi) - j @ j
        corner, _ = purestates._corner_certificate(n, alpha, xi)
        e = np.zeros((d, d))
        e[d - 1, d - 1] = 1.0
        assert np.abs(k - corner * e).max() <= 4 * eps, (xi, k, corner)
        diag, off = (r[0] for r in jacobi_recurrence(alpha, np.array([[float(abs(xi))]]), d + 1))
        phis = {d: np.zeros((d, d)), d - 1: np.eye(d)}
        for m in range(d - 1, 0, -1):
            phis[m - 1] = ((j - diag[m] * np.eye(d)) @ phis[m] - off[m] * phis[m + 1]) / off[m - 1]
        for p in range(d):
            for q in range(d):
                want = np.zeros((d, d))
                want[p, q] = 1.0
                assert np.abs(phis[p] @ e @ phis[q].T - want).max() <= 1e-12, (xi, p, q)


def test_a_shared_corner_is_refused_naming_both_frequencies(monkeypatch):
    # no drawn pair shares a corner within the float error, so the
    # refusal is shown with a gap bound above the nearest corner's
    _clear_separation_caches()
    _, gap = purestates._corner_certificate(3, 0.5, 4)
    _clear_separation_caches()
    monkeypatch.setattr(purestates, "CORNER_GAP_MIN", gap)
    with pytest.raises(NotSeparableError, match="at frequencies 4 and [35] "):
        separate(finite_state(4, [1.0, 0.0, 0.0]), finite_state(4, [0.0, 1.0, 0.0]), 3, 0.5)
    _clear_separation_caches()


def test_an_alpha_past_the_certificate_cap_is_refused_by_name():
    # the cap bounds the certificate's scan; a limit-state pair has no
    # certificate and is not refused by it
    pair = (finite_state(1, [1.0, 0.0]), finite_state(1, [0.0, 1.0]))
    _, vals = separate(*pair, 2, purestates.CORNER_ALPHA_MAX)
    assert vals == (1.0, 0.0)
    for alpha in (math.nextafter(purestates.CORNER_ALPHA_MAX, math.inf), 1e300):
        with pytest.raises(ValueError, match=re.escape(f"alpha {alpha} exceeds 100000, ")):
            separate(*pair, 2, alpha)
    separate(limit_state(), finite_state(1, [1.0, 0.0]), 2, 1e6)


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.5, 2.5])
def test_distinct_pairs_separate_at_every_frequency(alpha):
    # e_0 against e_(d-1) at xi, and e_0 at xi against e_0 at xi + 1, with
    # gap 1 and exact units, where the generator plans were refused (from
    # xi = 21 at n = 8); every finite state at xi has value |u_p|^2
    for n in range(2, 9):
        eye = np.eye(n)
        for xi in (25, 60, 200, 10**3, 10**4):
            for s1, s2 in ((finite_state(xi, eye[0]), finite_state(xi, eye[-1])),
                           (finite_state(xi, eye[0]), finite_state(xi + 1, eye[0]))):
                witness, vals, recipe = separation(s1, s2, n, alpha)
                assert sorted(vals) == [0.0, 1.0], (n, xi)
                rec = recipe["unit"]
                assert rec["gap"] > purestates.CORNER_GAP_MIN and rec["corner"] > 0
                assert witness.block(rec["xi"])[rec["p"], rec["q"]] == 1.0
                assert np.count_nonzero(witness.blocks) == 1
        _clear_separation_caches()

