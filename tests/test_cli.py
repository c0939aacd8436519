"""Command-line behavior: outputs, exit codes, round trips."""

import argparse
import gc
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import polyberg
from conftest import read_gamma_out
from polyberg import bergman_oracle, cli, integration, verify
from polyberg.cli import COMMANDS, build_parser, main
from polyberg.gammaseq import gamma_sequence, spectral_norm, tail_deviation
from polyberg.purestates import _corner_certificate, eval_state, finite_state, separation
from polyberg.symbols import indicator_symbol, poly_t_symbol, symbol_from_json_obj


def test_gamma_writes_json(tmp_path, capsys):
    out = tmp_path / "seq.json"
    code = main(
        [
            "gamma",
            "--n", "3",
            "--alpha", "0",
            "--xi-max", "8",
            "--symbol", '{"kind":"indicator","s":0.5}',
            "--out", str(out),
        ]
    )
    assert code == 0
    obj = json.loads(out.read_text())
    assert len(obj["matrices"]) == 11
    assert obj["xi_min"] == -2 and obj["xi_max"] == 8
    seq = read_gamma_out(obj)
    assert seq.block(0).shape == (3, 3)
    want = gamma_sequence(indicator_symbol(0.5), 3, 0.0, 8)
    assert np.array_equal(seq.blocks, want.blocks) and seq.scalar_limit == want.scalar_limit
    table = capsys.readouterr().out
    assert "tail_deviation" in table


def test_gamma_n1_closed_form(tmp_path):
    out = tmp_path / "seq.json"
    main(
        [
            "gamma",
            "--n", "1",
            "--alpha", "0",
            "--xi-max", "3",
            "--symbol", '{"kind":"indicator","s":0.5}',
            "--out", str(out),
        ]
    )
    obj = json.loads(out.read_text())
    vals = [m["rows"][0][0] for m in obj["matrices"]]
    assert vals == pytest.approx([0.25, 1 / 16, 1 / 64, 1 / 256], rel=1e-12)


def test_gamma_const_identity_stdout(capsys):
    code = main(
        ["gamma", "--n", "2", "--xi-max", "2", "--symbol", '{"kind":"const","value":2}']
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    for m in obj["matrices"]:
        arr = np.array(m["rows"])
        assert np.allclose(arr, 2.0 * np.eye(arr.shape[0]))


@pytest.mark.parametrize("symbol", [
    '{"kind":"indicator","s":0.5}',
    '{"kind":"poly_t","coeffs":[[0.5,0.25],-1,[0,2]]}',
])
def test_gamma_table_equals_the_per_block_norms(symbol, tmp_path, capsys):
    # the table reads one stacked SVD over the padded blocks; each column
    # must print what the norm of the unpadded block prints
    n, alpha, xi_max = 4, 0.5, 5
    code = main(["gamma", "--n", str(n), "--alpha", str(alpha), "--xi-max", str(xi_max),
                 "--symbol", symbol, "--out", str(tmp_path / "seq.json")])
    assert code == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    seq = gamma_sequence(symbol_from_json_obj(json.loads(symbol), alpha=alpha), n, alpha, xi_max)
    assert [int(r[0]) for r in rows] == list(range(-n + 1, xi_max + 1))
    for xi, order, norm, *tail in rows:
        xi = int(xi)
        assert int(order) == seq.block(xi).shape[0]
        assert norm == f"{spectral_norm(seq.block(xi)):.6e}"
        assert tail == ([f"{tail_deviation(seq, xi):.6e}"] if xi >= 0 else [])


def test_gamma_csv(tmp_path):
    out = tmp_path / "block.csv"
    main(
        [
            "gamma",
            "--n", "2",
            "--symbol", '{"kind":"const","value":1}',
            "--format", "csv",
            "--xi", "1",
            "--out", str(out),
        ]
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "j,k,value"
    assert len(lines) == 5


def test_gamma_bad_symbol_exits_2(capsys):
    code = main(["gamma", "--n", "2", "--symbol", "{not json"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("symbol, message", [
    ('{"kind":"const"}', "const symbol field 'value'"),
    ('{"kind":"sampled"}', "sampled symbol field 'points'"),
    ('{"kind":"indicator"}', "indicator symbol field 's'"),
    ('{"kind":"poly_t","coeffs":5}', "poly_t symbol field 'coeffs'"),
    ('{"kind":"sampled","points":[[0,null],[0.5,1]]}', "sampled symbol field 'points'"),
    ('{"kind":"jacobi_g","p":2.5}', "generator index 2.5 outside the integers"),
    ('{"kind":"jacobi_g","p":true}', "jacobi_g symbol field 'p'"),
    ('{"kind":"jacobi_g","p":2,"alpha":1e400}', "jacobi_g symbol field 'alpha'"),
    ('{"kind":"const","value":NaN}', "const symbol field 'value'"),
    ('{"kind":"const","value":1e400}', "const symbol field 'value'"),
    ('{"kind":"const","value":"1"}', "const symbol field 'value'"),
    ('{"kind":"poly_t","coeffs":[1,Infinity]}', "poly_t symbol field 'coeffs'"),
])
def test_malformed_symbol_exits_2_before_any_output(symbol, message, capsys):
    # each crashed with a traceback, was silently misread (p 2.5 read as 2,
    # true as 1, "1" as 1.0) or printed its payload before failing
    code = main(["gamma", "--n", "2", "--xi-max", "2", "--symbol", symbol])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["gamma", "--alpha", "inf", "--symbol", '{"kind":"const","value":1}'],
    ["gamma", "--alpha", "inf", "--symbol", '{"kind":"poly_t","coeffs":[1,1]}'],
    ["gamma", "--alpha", "1e300", "--symbol", '{"kind":"jacobi_g","p":2}'],
    ["basis", "--alpha", "inf"],
    ["separate", "--alpha", "inf", "--state", "inf", "--state", "0:1,0"],
    ["basis", "--alpha", "nan"],
    ["gamma", "--alpha", "inf", "--symbol", '{"kind":"jacobi_g","p":2}'],
    ["gamma", "--alpha", "nan", "--symbol", '{"kind":"jacobi_g","p":2}'],
])
def test_non_finite_or_overflowing_alpha_exits_2_before_any_output(argv, capsys):
    # a constant at alpha inf exited 0, the others printed a NaN payload
    # or raised OverflowError; basis read "cannot convert Infinity to
    # integer ratio", and a jacobi_g symbol's contextual alpha was refused
    # as a JSON field.  A non-finite alpha gets the one shared line
    code = main(argv)
    captured = capsys.readouterr()
    alpha = argv[argv.index("--alpha") + 1]
    message = "" if alpha == "1e300" else f"alpha must exceed -1 and be finite, got {alpha}"
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["gamma", "--alpha", "1e300", "--symbol", '{"kind":"poly_t","coeffs":[1,1]}'],
    ["separate", "--alpha", "1e300", "--state", "inf", "--state", "0:1,0"],
])
def test_overflowing_alpha_exits_2_in_a_process(argv):
    # the recurrence overflows to a non-finite block, which is refused;
    # numpy's overflow warnings reached stderr first, so this runs in its
    # own interpreter rather than under the warnings-as-errors filter
    src = os.path.dirname(os.path.dirname(polyberg.__file__))
    run = subprocess.run([sys.executable, "-m", "polyberg.cli", *argv], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == "error: poly_t symbol has a non-finite block entry at alpha 1e+300\n"


# every run of the sweep below through cli.main, in one interpreter that
# shows every warning (no warnings-as-errors filter, and no once-per-place
# default): [exit code, stderr] per argv, or [None, its traceback]
HUGE_ALPHA_RUNS = """
import contextlib, io, json, sys, traceback, warnings
from polyberg.cli import main
warnings.simplefilter("always")
runs = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    runs.append([code, err.getvalue()])
print(json.dumps(runs))
"""


def test_a_huge_alpha_is_served_or_refused_by_name_without_warnings(tmp_path):
    # gamma and separate printed three numpy RuntimeWarnings from the
    # recurrence before refusing a poly_t symbol at 1e200 and 1e300, and
    # an indicator's refusal named reg_incomplete_beta but not alpha
    symbols = ['{"kind":"poly_t","coeffs":[1,2]}', '{"kind":"indicator","s":0.5}',
               '{"kind":"sampled","points":[[0,1],[0.3,0.2],[0.8,0.7]]}']
    argvs = [argv + ["--n", "3", "--alpha", alpha, "--symbol", symbol]
             for alpha in ("1e100", "1e200", "1e300") for symbol in symbols
             for argv in (["gamma", "--xi-max", "3", "--out", str(tmp_path / "seq.json")],
                          ["separate", "--state", "inf", "--state", "2:1,0,0"],
                          ["purestate", "--state", "1:1,0,0"])]
    src = os.path.dirname(os.path.dirname(polyberg.__file__))
    run = subprocess.run([sys.executable, "-c", HUGE_ALPHA_RUNS, json.dumps(argvs)],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=120)
    assert run.returncode == 0, run.stderr
    runs = json.loads(run.stdout)
    bad = [(argv, code, err) for argv, (code, err) in zip(argvs, runs)
           if not (code == 0 and err == "" or code == 2 and err.count("\n") == 1
                   and err.startswith("error: ") and "alpha" in err)]
    assert not bad
    assert sum(code == 2 for code, _ in runs) > len(runs) // 2


@pytest.mark.parametrize("argv", [
    ["basis", "--n", "2", "--alpha", "1e300"],
    ["separate", "--n", "2", "--alpha", "1e300", "--state", "1:1,0", "--state", "1:0,1"],
    ["gamma", "--alpha", "1e300", "--symbol", '{"kind":"jacobi_g","p":2}'],
])
def test_a_huge_alpha_is_refused_by_name_in_a_process(argv):
    # an exact generator ratio (basis), the corner certificate's cap
    # (separate) and make_gp's boundary value (gamma) each refuse alpha
    # by name, on one line and at once
    src = os.path.dirname(os.path.dirname(polyberg.__file__))
    t0 = time.monotonic()
    run = subprocess.run([sys.executable, "-m", "polyberg.cli", *argv], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert time.monotonic() - t0 < 5.0
    assert (run.returncode, run.stdout) == (2, "")
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "alpha 1e+300" in lines[0]


def test_gamma_json_is_reproducible(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = [
        "gamma",
        "--n", "3",
        "--alpha", "1.0",
        "--xi-max", "6",
        "--symbol", '{"kind":"jacobi_g","p":3}',
    ]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert out1.read_text() == out2.read_text()


CONST = '{"kind":"const","value":1}'


@pytest.fixture
def unfrozen():
    gc.unfreeze()
    yield
    gc.unfreeze()


def test_main_leaves_the_heap_frozen(unfrozen, capsys):
    # the exit-time collections of a one-shot process skip frozen objects
    assert gc.get_freeze_count() == 0
    assert main(["gamma", "--n", "2", "--xi-max", "2", "--symbol", CONST]) == 0
    assert gc.get_freeze_count() > 0


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collector():
    enabled = gc.isenabled()
    yield
    _set_collector(enabled)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code", [
    (["gamma", "--n", "2", "--xi-max", "2", "--symbol", CONST], 0),
    (["gamma", "--symbol", "{"], 2),
    (["gamma", "--n", "four", "--symbol", CONST], SystemExit),
], ids=["return", "command-error", "argparse-exit"])
def test_main_runs_without_the_collector_and_restores_it(
        argv, code, enabled, collector, unfrozen, monkeypatch, capsys):
    seen = []
    real = build_parser

    def watched(argv):
        seen.append(gc.isenabled())
        return real(argv)

    monkeypatch.setattr(cli, "build_parser", watched)
    _set_collector(enabled)
    if code is SystemExit:
        with pytest.raises(SystemExit):
            main(argv)
    else:
        assert main(argv) == code
    assert seen == [False]
    assert gc.isenabled() is enabled


def test_command_runs_without_the_collector(collector, unfrozen, monkeypatch, capsys):
    seen = []

    def run_all(*args):
        seen.append(gc.isenabled())
        return [verify.CheckResult("probe", "pass", "")]

    monkeypatch.setattr(verify, "run_all", run_all)
    gc.enable()
    assert main(["verify", "--n", "2"]) == 0
    assert seen == [False] and gc.isenabled()


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--format", "csv", "--xi", "50", "--symbol", CONST],
        ["gamma", "--format", "csv", "--xi=-2", "--symbol", CONST],
        ["basis", "--n", "2", "--xi", "-3"],
        ["purestate", "--symbol", CONST, "--state=-5:1"],
        ["separate", "--state=-5:1", "--state", "inf"],
        ["oracle", "--xi-max", "-1", "--symbol", CONST],
    ],
)
def test_out_of_range_frequency_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--seed", "5", "--symbol", CONST],
        ["basis", "--xi-max", "99"],
        ["separate", "--xi-max", "3", "--state", "inf", "--state=0:1,0"],
        ["oracle", "--tol-zero", "1e-3", "--symbol", CONST],
        ["purestate", "--tol-nonzero", "1e-3", "--symbol", CONST, "--state", "inf"],
        ["basis", "--tol-zero", "1e-3"],
        ["verify", "--tol-nonzero", "1e-3"],
    ],
)
def test_unread_options_are_refused(argv, capsys):
    # each subcommand takes only the options it reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_purestate_value(capsys):
    code = main(
        [
            "purestate",
            "--n", "1",
            "--alpha", "0",
            "--symbol", '{"kind":"indicator","s":0.5}',
            "--state", "1:1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "0.0625" in out


def test_purestate_refuses_any_other_count_of_states(capsys):
    # one state is evaluated; extra ones (here of the wrong dimension) are
    # refused, not dropped
    symbol = ["--n", "2", "--symbol", '{"kind":"indicator","s":0.5}']
    for states in (["0:1,0", "inf", "9:1"], ["0:1,0", "0:0,1"]):
        argv = ["purestate", *symbol, *(arg for s in states for arg in ("--state", s))]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "purestate needs exactly one --state argument\n"


def test_separate_distinct_states(capsys):
    code = main(
        ["separate", "--n", "2", "--alpha", "0", "--state", "0:1,0", "--state", "2:1,0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "gap = 1.0" in out
    line = next(line for line in out.splitlines() if line.startswith("witness "))
    key, recipe = line.split(": ", 1)
    assert key == "witness unit"
    unit = json.loads(recipe)
    assert list(unit) == ["xi", "p", "q", "corner", "gap"] and unit["xi"] == 2
    assert (unit["p"], unit["q"]) == (0, 0)


def test_separate_recipe_rebuilds_the_witness(capsys):
    # an off-diagonal unit: the recipe names the frequency, the unit and
    # its combination, which rebuild the witness bit for bit, and the
    # certificate of its membership
    vectors = ([0.6, 0.8], [0.6, -0.8])
    code = main(["separate", "--n", "2", "--state", "0:0.6,0.8", "--state", "0:0.6,-0.8"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    recipe = dict(line.split(": ", 1) for line in lines if line.startswith("witness "))
    sigmas = [float(line.split(" = ")[1]) for line in lines if line.startswith("sigma_")]
    unit = json.loads(recipe.pop("witness unit"))
    assert not recipe
    xi, p, q, combination = unit["xi"], unit["p"], unit["q"], unit["combination"]
    sym = np.zeros((2, 2))
    sym[p, q] = sym[q, p] = 1.0
    block = sym if combination == "sym" else 1j * np.triu(sym) - 1j * np.tril(sym)
    witness, _, _ = separation(*(finite_state(0, u) for u in vectors), 2, 0.0)
    assert np.array_equal(witness.block(xi), block) and witness.xi_max == 0
    assert not np.delete(witness.blocks, xi + 1, axis=0).any() and witness.scalar_limit == 0.0
    values = [eval_state(finite_state(0, u), witness) for u in vectors]
    assert values == sigmas == [0.96, -0.96]
    assert (unit["corner"], unit["gap"]) == _corner_certificate(2, 0.0, xi)


def test_separate_infinity(capsys):
    code = main(
        [
            "separate",
            "--n", "2",
            "--alpha", "0",
            "--state", "inf",
            "--state", "1:1,0",
            "--symbol", '{"kind":"indicator","s":0.5}',
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "witness symbol" in out


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("alpha", [0.0, 2.5])
def test_separate_tells_the_limit_state_from_far_frequencies(n, alpha, capsys):
    # indicator(0.5)'s blocks decay like 4^-xi, so from about xi = 14 its
    # values fall within MIN_GAP of the limit 0, and at xi = 200 its kernel
    # refuses the moment degree; 1 - t then witnesses
    fallback = gamma_sequence(poly_t_symbol([1.0, -1.0]), n, alpha, 200)
    indicator = gamma_sequence(indicator_symbol(0.5), n, alpha, 150)
    with pytest.raises(ValueError, match="exceeds guard"):
        gamma_sequence(indicator_symbol(0.5), n, alpha, 200)
    used = set()
    for xi in (14, 20, 100, 150, 200):
        for k in (0, n - 1):
            u = np.eye(n)[k]
            state = finite_state(xi, u)
            code = main(["separate", "--n", str(n), "--alpha", str(alpha), "--state", "inf",
                         "--state", f"{xi}:" + ",".join(map(str, u))])
            lines = capsys.readouterr().out.splitlines()
            assert code == 0
            witness = symbol_from_json_obj(json.loads(lines[0].removeprefix("witness symbol: ")))
            seq = fallback if witness.kind == "poly_t" else indicator
            if seq is fallback:
                assert witness == poly_t_symbol([1.0, -1.0])
                assert xi == 200 or abs(eval_state(state, indicator)) <= 1e-8
            else:
                assert xi != 200
                assert witness == indicator_symbol(0.5)
            assert lines[1:3] == [f"sigma_1 = {0.0}", f"sigma_2 = {eval_state(state, seq)}"]
            used.add(witness.kind)
    assert "poly_t" in used


def test_separate_refuses_an_explicit_witness_past_its_guard(capsys):
    # a --symbol is the only witness tried: its kernel's refusal is the
    # answer, though 1 - t would separate the pair
    code = main(["separate", "--n", "2", "--alpha", "0.5", "--state", "inf",
                 "--state", "200:1,0", "--symbol", '{"kind":"indicator","s":0.5}'])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: moment degree 202 exceeds guard 192\n"


def test_separate_refuses_a_symbol_without_a_limit_state(capsys):
    # --symbol is read only for a pair with the limit state
    code = main(
        [
            "separate",
            "--state", "0:1,0",
            "--state", "2:1,0",
            "--symbol", '{"kind":"indicator","s":0.5}',
        ]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: --symbol")


def test_separate_refuses_a_symbol_before_the_coincidence_families(capsys):
    # the documented (0, 2) pair exits 3 without --symbol; with it, the
    # request itself is refused first
    u = np.sqrt(3.0) / 2.0
    code = main(
        [
            "separate",
            "--n", "2",
            "--alpha", "0",
            "--state", f"0:{u},0.5",
            "--state", "2:1,0",
            "--symbol", '{"kind":"const","value":1}',
        ]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (
        "error: --symbol is the witness of a limit-state pair; neither state is inf\n"
    )


def test_separate_coincidence_exits_3(capsys):
    u = np.sqrt(3.0) / 2.0
    code = main(
        [
            "separate",
            "--n", "2",
            "--alpha", "0",
            "--state", f"0:{u},0.5",
            "--state", "2:1,0",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("not separable by construction") == 1
    assert "the documented (0, 2) pair" in err


def test_separate_identical_exits_3():
    code = main(
        ["separate", "--n", "2", "--alpha", "0", "--state", "0:1,0", "--state", "0:1,0"]
    )
    assert code == 3


def test_separate_wrong_dimension_exits_2(capsys):
    code = main(
        ["separate", "--n", "2", "--alpha", "0", "--state", "0:1", "--state", "1:1,0"]
    )
    assert code == 2


def test_nonfinite_state_is_refused_before_normalizing(capsys):
    # no numpy warning on the way, and the message shows the given vector
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["separate", "--state", "0:nan,0", "--state", "0:1,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: state vector must be finite, got [nan+0.j")


def test_a_table_without_a_limit_has_its_last_value(tmp_path, capsys):
    # gamma printed no tail column for such a table, and purestate and
    # separate with the limit state exited 2
    table = '{"kind":"sampled","points":[[0,1],[0.5,0.25]]}'
    assert symbol_from_json_obj(json.loads(table)).limit == 0.25
    out = tmp_path / "seq.json"
    assert main(["gamma", "--n", "2", "--xi-max", "3", "--symbol", table, "--out", str(out)]) == 0
    seq = read_gamma_out(json.loads(out.read_text()))
    assert seq.scalar_limit == 0.25
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "xi order norm tail_deviation"
    assert [row.split()[3:] for row in rows[2:]] == [
        [f"{tail_deviation(seq, xi):.6e}"] for xi in range(4)]
    assert main(["purestate", "--n", "2", "--state", "inf", "--symbol", table]) == 0
    assert capsys.readouterr().out == "state value: 0.25\n"
    assert main(["separate", "--n", "2", "--state", "inf", "--state", "0:1,0",
                 "--symbol", table]) == 0
    assert "sigma_1 = 0.25\n" in capsys.readouterr().out


def test_basis_demo(capsys):
    code = main(["basis", "--n", "3", "--alpha", "0.5", "--xi", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "worst reconstruction error" in out


def test_basis_past_the_generator_degree(capsys):
    # the family at xi = 63 is g_64 and g_65, past jacobi.MAX_DEGREE: the
    # closed form of their blocks needs none of their coefficients
    code = main(["basis", "--n", "2", "--alpha", "0.5", "--xi", "63"])
    assert code == 0
    assert "worst reconstruction error: 0.000e+00" in capsys.readouterr().out


def test_basis_and_separate_refuse_a_family_by_one_rule(capsys):
    # the family at n = 6, xi = 30 fails the structure test, and the unit
    # demo refuses it; separate, which needs no generator family, tells
    # the two states apart
    message = "error: generator 0: row entry (5,0) = 2.945e-15 must be nonzero\n"
    assert main(["basis", "--n", "6", "--alpha", "0", "--xi", "30"]) == 2
    assert capsys.readouterr().err == message
    states = ["--state", "30:1,0,0,0,0,0", "--state", "30:0,1,0,0,0,0"]
    assert main(["separate", "--n", "6", "--alpha", "0", *states]) == 0
    assert capsys.readouterr().out.endswith("gap = 1.0\n")


@pytest.mark.parametrize("argv", [
    ["--n", "8", "--alpha", "0.5", "--state", "25:1,0,0,0,0,0,0,0",
     "--state", "25:0,0,0,0,0,0,0,1"],
    ["--n", "4", "--alpha", "0.5", "--state", "70:1,0,0,0", "--state", "70:0,1,0,0"],
    ["--n", "2", "--alpha", "0.5", "--state", "191:1,0", "--state", "191:0,1"],
    ["--n", "2", "--alpha", "0.5", "--state", "190:1,0", "--state", "191:1,0"],
], ids=["n8-xi25", "n4-xi70", "n2-xi191", "n2-cross-191"])
def test_separate_pairs_the_generator_plans_refused(argv, capsys):
    # refused by the generator structure test or the moment guard when
    # the witnesses came from generator plans
    assert main(["separate", *argv]) == 0
    out = capsys.readouterr().out
    assert out.startswith("witness unit: ") and out.endswith("gap = 1.0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--n", "2", "--xi", "1000000000"],
        ["gamma", "--n", "2", "--xi-max", "1",
         "--symbol", '{"kind":"jacobi_g","p":1e9,"alpha":0.5}'],
    ],
)
def test_huge_generator_index_is_refused_before_any_work(argv, capsys):
    # make_gp refuses the index before forming its boundary product
    assert main(argv) == 2
    assert "generator index 100000000" in capsys.readouterr().err


def test_oracle_command(capsys):
    code = main(
        [
            "oracle",
            "--n", "2",
            "--alpha", "0",
            "--xi-max", "1",
            "--symbol", '{"kind":"indicator","s":0.5}',
        ]
    )
    assert code == 0
    assert "worst disagreement" in capsys.readouterr().out


def test_oracle_agrees_on_a_generator_past_the_exact_degree(capsys):
    # g_30 is evaluated pointwise by its recurrence (the float monomials
    # disagreed by 3.3e4); g_70 is resolved by panels sized from its
    # degree (256 fixed panels left a gap of 2.1e-4)
    argv = ["oracle", "--n", "2", "--alpha", "0.5", "--xi-max", "2", "--symbol"]
    assert main([*argv, '{"kind":"jacobi_g","p":30}']) == 0
    assert float(capsys.readouterr().out.split()[-1]) < 1e-7
    assert main([*argv, '{"kind":"jacobi_g","p":70}']) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and float(captured.out.split()[-1]) < 1e-7


def test_oracle_fails_on_a_nan_gap(monkeypatch, capsys):
    # max(0.0, nan) is 0.0: a NaN entry must not read as agreement
    real = bergman_oracle.quadrature_block

    def one_nan(rule, n, alpha, xi):
        block = real(rule, n, alpha, xi)
        if xi == 1:
            block[0, 0] = np.nan
        return block

    monkeypatch.setattr(bergman_oracle, "quadrature_block", one_nan)
    code = main(["oracle", "--n", "2", "--xi-max", "2", "--symbol", CONST])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[-1] == "worst disagreement: nan"


def test_oracle_builds_one_block_per_frequency(monkeypatch, capsys):
    # the printed gamma blocks: one stacked kernel call over |xi| = 0..4 at
    # order 4 (negative frequencies are leading submatrices), not one per entry
    calls = []
    real = integration._float_blocks

    def counted(a, alpha, xis, d):
        calls.append((xis, d))
        return real(a, alpha, xis, d)

    monkeypatch.setattr(integration, "_float_blocks", counted)
    code = main(["oracle", "--n", "4", "--xi-max", "4",
                 "--symbol", '{"kind":"indicator","s":0.7}'])
    assert code == 0
    assert calls == [(range(5), 4)]


@pytest.mark.parametrize("symbol", ['{"kind":"const","value":-2}', '{"kind":"poly_t","coeffs":[-2]}',
                                    '{"kind":"sampled","points":[[0,-2],[0.5,-2]]}'])
def test_a_constant_runs_no_recurrence(symbol, tmp_path, capsys):
    # no cut and degree 0: no Jacobi matrix is formed, so alpha = 1e300
    # overflows nothing (a one-coefficient poly_t exited 2 on its non-finite
    # recurrence), and the flat table answers past the moment guard
    out = tmp_path / "seq.json"
    for alpha, xi_max in (("1e300", "8"), ("0.5", "300")):
        code = main(["gamma", "--n", "4", "--alpha", alpha, "--xi-max", xi_max,
                     "--symbol", symbol, "--out", str(out)])
        assert (code, capsys.readouterr().err) == (0, "")
        blocks = read_gamma_out(json.loads(out.read_text())).blocks[3:]  # xi >= 0
        assert blocks.tobytes() == (-2.0 * np.eye(4) + 0.0)[None].repeat(len(blocks), 0).tobytes()


def test_purestate_computes_only_up_to_its_state(capsys):
    # a state's value does not depend on a range, so purestate takes no
    # --xi-max: "--xi-max 500" made an indicator's state refused by the
    # moment guard (degree 502), at a finite state and at the limit state
    indicator = '{"kind":"indicator","s":0.5}'
    for state, want in (("0:1,0", 0.25), ("inf", 0.0)):
        assert main(["purestate", "--n", "2", "--symbol", indicator, "--state", state]) == 0
        assert capsys.readouterr().out == f"state value: {want}\n"
        with pytest.raises(SystemExit) as exc:
            main(["purestate", "--n", "2", "--symbol", indicator, "--xi-max", "500",
                  "--state", state])
        assert exc.value.code == 2
        assert "unrecognized arguments: --xi-max 500" in capsys.readouterr().err
    # bit for bit the value on a longer sequence
    seq = gamma_sequence(indicator_symbol(0.5), 3, 0.5, 20)
    assert main(["purestate", "--n", "3", "--alpha", "0.5", "--symbol", indicator,
                 "--state", "7:1,0.5,-0.25j"]) == 0
    u = np.array([1, 0.5, -0.25j]) / np.linalg.norm([1, 0.5, -0.25j])
    assert capsys.readouterr().out == f"state value: {eval_state(finite_state(7, u), seq)}\n"


@pytest.mark.parametrize("n, alpha", [(5, "60"), (1, "80"), (3, "100"), (8, "240")])
def test_verify_passes_at_large_alpha(n, alpha, capsys):
    # the tail check read indicator(0.5) at frequency 60, where it has not
    # decayed at these alpha (6.9e-5, 1.7e-6 and 1.8e-2 at the first three)
    code = main(["verify", "--n", str(n), "--alpha", alpha])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.endswith("12/12 checks passed\n")


@pytest.mark.parametrize("alpha", ["240.5", "1e300"])
def test_verify_refuses_alpha_above_its_cap(alpha, capsys):
    # 1e300 failed 12 of 15 checks with exit 1
    code = main(["verify", "--n", "2", "--alpha", alpha])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: verify serves alpha up to 240, got {float(alpha)}\n"


def test_verify_default_passes(capsys):
    code = main(["verify", "--n", "2", "--alpha", "1.0", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "FAIL" not in out


def test_verify_negative_alpha_passes_every_check(capsys):
    # no check is skipped below alpha = 0
    code = main(["verify", "--n", "2", "--alpha", "-0.5", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.endswith("12/12 checks passed\n") and "SKIP" not in out


def test_verify_seed_independence(capsys):
    for seed in ("7", "8"):
        code = main(["verify", "--n", "2", "--alpha", "0.5", "--seed", seed])
        assert code == 0, capsys.readouterr().out


@pytest.mark.parametrize("alpha", ["0.1", "0.3"])
def test_verify_passes_at_long_dyadic_alpha(alpha, capsys):
    # 0.1 and 0.3 are long binary fractions (N / 2^55, N / 2^54): their
    # rounded monomial coefficients made the orthogonality and Beta-moment
    # checks read 1.1e-9 and 2.8e-10 against 1e-10; exact ones do not
    code = main(["verify", "--n", "2", "--alpha", alpha])
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.endswith("12/12 checks passed\n")


@pytest.mark.parametrize(
    "argv", [["--n", "0"], ["--n", "-1"], ["--n", "9"], ["--n", "66"],
             ["--alpha", "-1"], ["--alpha", "nan"], ["--alpha", "inf"]]
)
def test_verify_bad_input_exits_2(argv, capsys):
    code = main(["verify", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_verify_reports_a_crashed_check(monkeypatch, capsys):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "two_path_gap", boom)
    code = main(["verify", "--n", "2", "--alpha", "1.0"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL  state evaluation two paths    raised RuntimeError('boom')"]
    assert lines[-1] == "11/12 checks passed, 1 failed"


def test_verify_fails_a_nan_measurement(monkeypatch):
    # the second family's errors are NaN; max(x, nan) keeps x, so a
    # running max over the families would read its first error and pass
    real, calls = verify.matrix_unit_errors, []

    def nan_second(gs):
        calls.append(len(gs))
        return real(gs) * (np.nan if len(calls) == 2 else 1.0)

    monkeypatch.setattr(verify, "matrix_unit_errors", nan_second)
    results = {r.name: r for r in verify.run_all(2, 1.0, 0)}
    unit = results.pop("matrix-unit reconstruction")
    assert (unit.status, unit.detail) == ("fail", "max reconstruction error nan")
    assert all(r.status == "pass" for r in results.values())
    # and a NaN inner product fails orthogonality, where max(0.0, nan) is 0.0
    assert math.isnan(verify.orthogonality_deviation(
        [0.5], [0], 2, pair_integral=lambda *args: math.nan))


def test_verify_fails_a_nan_separation_gap(monkeypatch):
    # min(inf, nan) is inf, so a running min would read a NaN gap as
    # inf > 1e-8 and pass
    monkeypatch.setattr(verify, "separate", lambda *args: (None, (math.nan, 0.0)))
    results = {r.name: r for r in verify.run_all(2, 1.0, 0)}
    assert results["pure-state separation"].status == "fail"
    assert math.isnan(verify.separation_gaps(2, 1.0, [(None, None)])[0])


def test_verify_fails_a_nan_eigenvalue(monkeypatch):
    # the second block's eigenvalues are NaN; min(x, nan) keeps x
    real, calls = np.linalg.eigvalsh, []

    def nan_second(b):
        calls.append(b)
        return real(b) * (np.nan if len(calls) == 2 else 1.0)

    monkeypatch.setattr(np.linalg, "eigvalsh", nan_second)
    results = {r.name: r for r in verify.run_all(2, 1.0, 0)}
    assert results.pop("sequence basics").status == "fail"
    assert all(r.status == "pass" for r in results.values())


def test_run_all_gives_each_check_a_fresh_rng_and_maps_its_verdict(monkeypatch):
    calls = []

    def probe(ok, detail):
        def check(n, alphas, rng):
            calls.append((n, alphas, rng.random()))
            return ok, detail
        return check

    def crash(n, alphas, rng):
        calls.append((n, alphas, rng.random()))
        raise RuntimeError("probe")

    monkeypatch.setattr(verify, "CHECKS", [
        ("pass", probe(True, "detail one")), ("crash", crash),
        ("fail", probe(False, "detail three")),
    ])
    results = verify.run_all(3, None, 5)
    assert [tuple(r) for r in results] == [
        ("pass", "pass", "detail one"), ("crash", "fail", "raised RuntimeError('probe')"),
        ("fail", "fail", "detail three"),
    ]
    assert calls == [(3, [0.0, 1.0, 2.5], random.Random(5).random())] * 3


# exit code, stdout and stderr of each, as the parent's parser of every
# subcommand gives them
PARSE_ONLY = [["--help"], [], ["bogus"], ["gamma", "--help"], ["gamma"], ["verify", "--help"],
              ["separate", "--help"], ["purestate", "--n", "2"], ["-h", "gamma"],
              ["gamma", "--symbol", "{}", "--bogus"], ["verify", "--n", "x"]]


def _subcommands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


@pytest.mark.parametrize("argv", PARSE_ONLY, ids=" ".join)
def test_one_subcommand_parser_reads_as_the_full_parser(argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")

    def run(parse):
        with pytest.raises(SystemExit) as exc:
            parse()
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    full = run(lambda: build_parser().parse_args(argv))
    assert run(lambda: main(argv)) == full
    # only the subcommand argv names first is built
    built = _subcommands(build_parser(argv))
    assert built == (argv[:1] if argv and argv[0] in COMMANDS else list(COMMANDS))
    if argv == ["bogus"]:
        assert full == (2, "", "usage: polyberg [-h] {gamma,purestate,separate,basis,oracle,verify} ...\n"
                        "polyberg: error: argument command: invalid choice: 'bogus' (choose from "
                        "'gamma', 'purestate', 'separate', 'basis', 'oracle', 'verify')\n")
    if argv == ["gamma"]:
        assert full == (2, "", "usage: polyberg gamma [-h] [--n N] [--alpha ALPHA] [--xi-max XI_MAX] "
                        "--symbol\n                      SYMBOL [--format {json,csv}] [--xi XI] "
                        "[--out OUT]\npolyberg gamma: error: the following arguments are "
                        "required: --symbol\n")
