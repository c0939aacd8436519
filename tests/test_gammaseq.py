"""Matrix-sequence assembly, structure, norms, limits, and export."""

import json

import numpy as np
import pytest

from polyberg import integration, verify
from polyberg.gammaseq import (
    MatrixSeq,
    block_csv,
    block_order,
    frequencies,
    gamma_matrix,
    gamma_sequence,
    seq_from_json_obj,
    seq_to_json_obj,
    spectral_norm,
    tail_deviation,
)
from polyberg.symbols import (
    const_symbol,
    indicator_symbol,
    make_gp,
    poly_t_symbol,
    sampled_symbol,
    sup_abs,
)
from polyberg.verify import negative_submatrix_failures, scalar_limit_tail, sequence_basics


def test_block_order():
    assert block_order(3, -2) == 1
    assert block_order(3, -1) == 2
    assert block_order(3, 0) == 3
    assert block_order(3, 7) == 3
    with pytest.raises(IndexError):
        block_order(3, -3)


def test_const_symbol_identity_blocks():
    seq = gamma_sequence(const_symbol(2.0), 3, 0.0, 4)
    assert len(seq.blocks) == 7
    for xi in frequencies(3, 4):
        b = seq.block(xi)
        assert b.shape == (block_order(3, xi),) * 2
        assert np.max(np.abs(b - 2.0 * np.eye(b.shape[0]))) < 1e-12


def test_gamma_matrix_frozen_example():
    m = gamma_matrix(make_gp(1, 0.0), 2, 0.0, 0)
    want = np.array([[0.0, 1.0 / np.sqrt(3.0)], [1.0 / np.sqrt(3.0), 0.0]])
    assert np.max(np.abs(m - want)) < 1e-14


def test_indicator_closed_form_n1():
    seq = gamma_sequence(indicator_symbol(0.5), 1, 0.0, 8)
    for xi in range(0, 9):
        assert seq.block(xi)[0, 0] == pytest.approx(0.25 ** (xi + 1), rel=1e-13)


def test_symmetry_exact(rng):
    a = poly_t_symbol(list(rng.uniform(-1, 1, size=5)))
    for xi in (-1, 0, 2):
        m = gamma_matrix(a, 3, 1.5, xi)
        assert np.array_equal(m, m.T)


def test_psd_for_nonnegative_symbols():
    for sym in (
        indicator_symbol(0.3),
        indicator_symbol(0.9),
        poly_t_symbol([0.2, -0.4, 0.3]),  # positive definite on [0, 1]
        const_symbol(2.0),
    ):
        seq = gamma_sequence(sym, 3, 0.5, 8)
        for b in map(seq.block, frequencies(3, 8)):
            assert np.linalg.eigvalsh(b).min() >= -1e-10


def test_norm_bounded_by_symbol_sup():
    for sym in (
        indicator_symbol(0.5),
        poly_t_symbol([0.5, -2.0]),
        make_gp(3, 1.0),
        const_symbol(-1.5),
    ):
        seq = gamma_sequence(sym, 4, 1.0, 10)
        bound = sup_abs(sym) + 1e-9
        for b in map(seq.block, frequencies(4, 10)):
            assert spectral_norm(b) <= bound


def test_gamma_linearity(rng):
    ca = list(rng.uniform(-1, 1, size=3))
    cb = list(rng.uniform(-1, 1, size=5))
    _, lin_dev, _, _, _ = sequence_basics(3, 2.5, 5, ca, cb, (-2, 0, 5))
    assert lin_dev < 1e-12


def test_identity_deviation_integrates_the_unit_symbol(monkeypatch):
    # doubled normalization constants scale every integrated entry by 4, so
    # the identity deviation must see them; a constant symbol or the unit
    # polynomial, whose blocks are value * I as they stand, never would
    unpatched = sequence_basics(3, 0.5, 6, [0.3], [0.1], (0,))[0]
    real = integration._norms_sq
    monkeypatch.setattr(integration, "_norms_sq", lambda *args: (
        [(4 * num, den) for num, den in norms] for norms in real(*args)))
    patched = sequence_basics(3, 0.5, 6, [0.3], [0.1], (0,))[0]
    assert unpatched < 1e-12 < patched


def test_sequence_basics_finds_each_sup_once(monkeypatch):
    # sup_abs root-finds, and its value does not depend on the block
    kinds = []
    monkeypatch.setattr(verify, "sup_abs", lambda sym: kinds.append(sym.kind) or sup_abs(sym))
    sequence_basics(3, 0.5, 6, [0.3], [0.1], (0,))
    assert kinds == ["indicator", "poly_t"]


def test_negative_submatrix_relation():
    syms = (const_symbol(3.0), make_gp(3, 1.5), indicator_symbol(0.7))
    for n in (2, 4):
        assert negative_submatrix_failures(n, 1.5, syms, 6) == []


def test_spectral_norm_matches_numpy(rng):
    # bracketed above by the top singular value; the lower bracket (the
    # second singular value, or a 5e-4 undershoot) is loose, and the exact
    # norm meets it with room to spare
    for _ in range(60):
        d = int(rng.integers(1, 8))
        m = rng.normal(size=(d, d))
        m = m + m.T
        got = spectral_norm(m)
        svs = np.linalg.svd(m, compute_uv=False)
        assert got <= svs[0] * (1 + 1e-11)
        lower = svs[1] if d > 1 else svs[0]
        assert got >= min(lower, svs[0] * (1 - 5e-4)) - 1e-12
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_spectral_norm_complex_blocks(rng):
    seq = gamma_sequence(const_symbol(1 + 2j), 3, 0.0, 3)
    for b in map(seq.block, frequencies(3, 3)):
        assert np.iscomplexobj(b)
        assert spectral_norm(b) == pytest.approx(abs(1 + 2j), rel=1e-10)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    got = spectral_norm(m)
    svs = np.linalg.svd(m, compute_uv=False)
    assert got <= svs[0] * (1 + 1e-11)
    assert got >= min(svs[1], svs[0] * (1 - 5e-4)) - 1e-12


def test_spectral_norm_exact_small_and_separated(rng):
    # rotated spectra with a clear top eigenvalue of 2.0
    for _ in range(30):
        d = int(rng.integers(2, 8))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        vals = np.sort(rng.uniform(0.1, 1.0, size=d))
        vals[-1] = 2.0
        m = (q * vals) @ q.T
        assert spectral_norm(m) == pytest.approx(2.0, rel=1e-9)
    assert spectral_norm(np.array([[-3.25]])) == 3.25


def test_spectral_norm_near_degenerate_top_pair():
    # top two singular values 1e-4 apart: an iterative estimate stalls
    # between them, the norm must still be exactly the largest
    m = np.diag([1.0, 1.0 - 1e-4, 0.3])
    assert spectral_norm(m) == pytest.approx(1.0, rel=1e-12)


def test_tail_deviation_closed_form():
    _, closed = scalar_limit_tail(0.5, 1, 0.0, range(31))
    assert closed <= 1e-14


def test_tail_deviation_goes_to_zero():
    # decay rate is governed by s^xi: s = 0.9 needs far larger xi than
    # s = 0.3 to reach the same smallness
    for s, xi_small in ((0.3, 60), (0.5, 60), (0.9, 140)):
        seq = gamma_sequence(indicator_symbol(s), 3, 1.0, xi_small)
        assert tail_deviation(seq, xi_small) < 1e-6
        assert tail_deviation(seq, xi_small) <= tail_deviation(seq, xi_small - 20)


def test_tail_deviation_errors():
    seq = gamma_sequence(const_symbol(1.0), 2, 0.0, 3)
    with pytest.raises(ValueError):
        tail_deviation(seq, -1)


def _seq_grid(n, xi_max):
    """Real sequences (g_1, g_2, const, indicator) and complex ones."""
    real = [
        gamma_sequence(make_gp(1, 0.0), n, 0.0, xi_max),
        gamma_sequence(make_gp(2, 0.0), n, 0.0, xi_max),
        gamma_sequence(const_symbol(2.0), n, 0.0, xi_max),
        gamma_sequence(indicator_symbol(0.5), n, 0.0, xi_max),
    ]
    cplx = [
        gamma_sequence(const_symbol(1 + 2j), n, 0.0, xi_max),
        gamma_sequence(poly_t_symbol([0.5 + 1j, -0.25j, 0.3]), n, 0.0, xi_max),
    ]
    return real, cplx


def _padding_is_zero(seq):
    for xi in frequencies(seq.n, seq.xi_max):
        d = block_order(seq.n, xi)
        slab = seq.blocks[xi + seq.n - 1]
        if np.any(slab[d:, :]) or np.any(slab[:, d:]):
            return False
    return True


def test_seq_algebra_limits():
    xi_max = 4
    eps = np.finfo(float).eps
    for n in (1, 2, 3, 5):
        real, cplx = _seq_grid(n, xi_max)
        a, b = real[:2]
        assert (a + b).scalar_limit == pytest.approx(2.0)
        assert (a @ b).scalar_limit == pytest.approx(1.0)
        assert (0.5 * a).scalar_limit == pytest.approx(0.5)
        freqs = frequencies(n, xi_max)
        grid = [(x, True) for x in real] + [(x, False) for x in cplx]
        for x, x_real in grid:
            assert len(x.blocks) == len(freqs)
            for c in (0.5, -1.5j):
                cx = c * x
                assert _padding_is_zero(cx)
                for xi in freqs:
                    assert np.array_equal(cx.block(xi), c * x.block(xi))
            for y, y_real in grid:
                s, p = x + y, x @ y
                assert _padding_is_zero(s) and _padding_is_zero(p)
                for xi in freqs:
                    bx, by = x.block(xi), y.block(xi)
                    assert np.array_equal(s.block(xi), bx + by)
                    if x_real and y_real:
                        assert np.array_equal(p.block(xi), bx @ by)
                    else:
                        # the padded product rounds at order n: within 4 ulps
                        # of the magnitude sum of each entry
                        bound = 4 * eps * (np.abs(bx) @ np.abs(by))
                        assert np.all(np.abs(p.block(xi) - bx @ by) <= bound), xi


def test_seq_algebra_refuses_mixed_sequences():
    g = make_gp(1, 0.0)
    a = gamma_sequence(g, 2, 0.0, 3)
    for other in (
        gamma_sequence(make_gp(1, 1.0), 2, 1.0, 3),
        gamma_sequence(g, 3, 0.0, 3),
        gamma_sequence(g, 2, 0.0, 4),
    ):
        with pytest.raises(ValueError):
            a + other
        with pytest.raises(ValueError):
            a @ other


def test_json_round_trip_bitwise():
    for sym in (indicator_symbol(0.5), const_symbol(1 + 2j), make_gp(2, 0.5)):
        seq = gamma_sequence(sym, 3, 0.5, 5)
        text = json.dumps(seq_to_json_obj(seq))
        back = seq_from_json_obj(json.loads(text))
        assert back.n == seq.n and back.alpha == seq.alpha
        assert back.scalar_limit == seq.scalar_limit
        for xi in frequencies(3, 5):
            assert np.array_equal(back.block(xi), seq.block(xi))


def test_block_csv():
    seq = gamma_sequence(const_symbol(1.0), 2, 0.0, 2)
    text = block_csv(seq, 0)
    lines = text.strip().splitlines()
    assert lines[0] == "j,k,value"
    assert len(lines) == 5
    assert lines[1].startswith("0,0,")


def test_matrixseq_needs_its_scalar_limit():
    with pytest.raises(ValueError, match="needs its scalar limit"):
        MatrixSeq(n=2, alpha=0.0, blocks=np.zeros((3, 2, 2)), scalar_limit=None)
    # a table given without a limit has its last value as one
    obj = seq_to_json_obj(gamma_sequence(sampled_symbol([(0.0, 1.0), (0.5, 0.5)]), 2, 0.0, 2))
    assert obj["scalar_limit"] == 0.5
    assert seq_from_json_obj(obj).scalar_limit == 0.5
    for lost in (dict(obj, scalar_limit=None),
                 {key: val for key, val in obj.items() if key != "scalar_limit"}):
        with pytest.raises(ValueError, match="needs its scalar limit"):
            seq_from_json_obj(lost)


def test_matrixseq_validation():
    for n, bad in (
        (2, np.eye(2)),
        (2, np.zeros((1, 2, 2))),  # xi_max < 0
        (2, np.zeros((3, 3, 3))),
        (2, np.zeros((3, 2, 3))),
        (0, np.zeros((1, 0, 0))),
    ):
        with pytest.raises(ValueError):
            MatrixSeq(n=n, alpha=0.0, blocks=bad, scalar_limit=0.0)
    seq = gamma_sequence(const_symbol(1.0), 2, 0.0, 2)
    for xi in (-2, 3):
        with pytest.raises(IndexError):
            seq.block(xi)
    obj = seq_to_json_obj(seq)
    gap = dict(obj, matrices=[m for m in obj["matrices"] if m["xi"] != 1])
    with pytest.raises(ValueError, match="in order"):
        seq_from_json_obj(gap)
    wrong = dict(
        obj,
        matrices=[dict(m, rows=[[1.0]]) if m["xi"] == 0 else m for m in obj["matrices"]],
    )
    with pytest.raises(ValueError, match="order 2"):
        seq_from_json_obj(wrong)


def test_matrixseq_equality_is_identity():
    a = gamma_sequence(const_symbol(1.0), 2, 0.0, 2)
    b = gamma_sequence(const_symbol(1.0), 2, 0.0, 2)
    assert (a == b) is False and (a == a) is True
    assert a in [a] and a not in [b]


def test_matrixseq_is_read_only():
    seq = gamma_sequence(indicator_symbol(0.5), 3, 0.0, 3)
    for s in (seq, seq + seq, 2.0 * seq, seq @ seq):
        with pytest.raises(ValueError):
            s.blocks[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            s.block(-1)[0, 0] = 1.0
        with pytest.raises(ValueError):
            s.block(2)[0, 0] = 1.0
