"""The package loads its modules on demand.

`import polyberg` loads no module; each public name is imported from its
module on first lookup, so a `polyberg gamma` process loads only the
sequence path.  `import polyberg.cli` loads no numpy and no other polyberg
module: the commands import what they use.  A process run by `cli.main`
exits with the heap frozen.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from typing import NamedTuple

import pytest

import polyberg
from polyberg.gammaseq import gamma_sequence, seq_to_json_obj
from polyberg.symbols import symbol_from_json_obj

GAMMA_PATH = {"cli", "gammaseq", "integration", "jacobi", "special_fn", "symbols"}


def test_cli_import_loads_no_numpy_and_no_other_module():
    # numpy and the sequence path are imported by the commands; nor
    # fractions, which loads decimal: only the exact oracles use it
    src = os.path.dirname(os.path.dirname(polyberg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, polyberg.cli; "
            "print(' '.join(m for m in sys.modules "
            "if m.startswith(('polyberg.', 'numpy')) or m in ('fractions', 'decimal')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.split() == ["polyberg.cli"]


class CliRun(NamedTuple):
    code: int
    modules: set       # the polyberg modules loaded, without the prefix
    others: set        # which of numpy.polynomial, numpy.random, fractions and decimal
    frozen: int        # gc.get_freeze_count() once main has returned
    stderr: str


def _cli_run(argv, timeout=60) -> CliRun:
    """`polyberg <argv>` run by main in a fresh interpreter; an argparse
    exit counts as main's return."""
    src = os.path.dirname(os.path.dirname(polyberg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import gc, sys; from polyberg.cli import main\n"
            f"try: code = main({argv!r})\n"
            "except SystemExit as exc: code = exc.code\n"
            "print(code, gc.get_freeze_count(), *(m for m in sys.modules "
            "if m.startswith('polyberg.') "
            "or m in ('numpy.polynomial', 'numpy.random', 'fractions', 'decimal')))")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=timeout)
    code, frozen, *loaded = run.stdout.splitlines()[-1].split()
    modules = {m.removeprefix("polyberg.") for m in loaded if m.startswith("polyberg.")}
    return CliRun(int(code), modules, set(loaded) - {f"polyberg.{m}" for m in modules},
                  int(frozen), run.stderr)


def test_gamma_process_exits_frozen_with_its_whole_output(tmp_path):
    # the exit-time collections skip the frozen heap; the file is closed
    # before main returns, so it holds what an in-process call computes
    out = tmp_path / "seq.json"
    symbol = '{"kind":"poly_t","coeffs":[0.5,-1,0.25]}'
    run = _cli_run(["gamma", "--n", "4", "--alpha", "0.5", "--xi-max", "12",
                    "--symbol", symbol, "--out", str(out)])
    assert run.code == 0 and run.frozen > 0
    assert run.modules == GAMMA_PATH and not run.others & {"fractions", "decimal"}
    seq = gamma_sequence(symbol_from_json_obj(json.loads(symbol), alpha=0.5), 4, 0.5, 12)
    assert out.read_text(encoding="utf-8") == json.dumps(seq_to_json_obj(seq))


@pytest.mark.parametrize("argv, message", [
    (["gamma", "--n", "four", "--symbol", '{"kind":"const","value":1}'],
     "error: argument --n: invalid int value: 'four'"),
    (["gamma", "--symbol", "{"], "error: symbol is not valid JSON"),
], ids=["argparse", "command"])
def test_usage_error_exits_frozen(argv, message):
    run = _cli_run(argv)
    assert run.code == 2 and run.frozen > 0
    assert message in run.stderr


def test_oracle_loads_only_the_sequence_path_and_the_oracle():
    # the comparison reads gamma_sequence; generators, purestates and
    # verify stay unloaded, and the closed-form Gauss-Legendre rule needs
    # no numpy.polynomial
    code, modules, others, *_ = _cli_run(
        ["oracle", "--n", "2", "--xi-max", "1", "--symbol", '{"kind":"const","value":1}'])
    assert code == 0
    assert modules == GAMMA_PATH | {"bergman_oracle"}
    assert "numpy.polynomial" not in others


def test_verify_loads_no_exact_rationals():
    # verify's exact checks convolve integer coefficients over their
    # common denominator; fractions and decimal stay for the test oracles.
    # Its draws come from random.Random: numpy.random's bit generators
    # would import hashlib and OpenSSL
    code, _, others, *_ = _cli_run(["verify", "--n", "2", "--seed", "0"], timeout=120)
    assert code == 0
    assert not others & {"fractions", "decimal", "numpy.random"}


def test_verify_loads_no_oracle():
    # no check of `polyberg verify` runs the 2D quadrature
    code, modules, *_ = _cli_run(["verify", "--n", "3", "--seed", "1"], timeout=120)
    assert code == 0
    assert "bergman_oracle" not in modules


def test_basis_loads_only_the_sequence_path_and_the_generators():
    code, modules, *_ = _cli_run(["basis", "--n", "3", "--alpha", "0.5", "--xi", "2"])
    assert code == 0
    assert modules == GAMMA_PATH | {"generators"}


def test_separate_loads_only_the_sequence_path_and_purestates():
    # a finite pair's witness is an exact unit: no generator family
    code, modules, *_ = _cli_run(["separate", "--n", "3", "--alpha", "0.5",
                                  "--state", "1:1,0,0", "--state", "2:0,1,0"])
    assert code == 0
    assert modules == GAMMA_PATH | {"purestates"}


def test_public_names_resolve_to_their_modules():
    for module, names in polyberg._EXPORTS.items():
        mod = importlib.import_module(f"polyberg.{module}")
        for name in names:
            assert getattr(polyberg, name) is getattr(mod, name)
            # a resolved name is cached as a plain attribute
            assert vars(polyberg)[name] is getattr(mod, name)
    assert sorted(polyberg.__all__) == sorted(polyberg._MODULE_OF)


def test_dir_lists_every_public_name():
    assert set(polyberg.__all__) <= set(dir(polyberg))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        polyberg.no_such_name


def test_every_module_defines_the_names_of_its_all():
    # a name removed from a module but left in its __all__ breaks
    # `from polyberg.<module> import *`; cli and verify declare none
    src = os.path.dirname(polyberg.__file__)
    modules = sorted(f[:-3] for f in os.listdir(src) if f.endswith(".py") and f != "__init__.py")
    declared, missing = [], []
    for module in modules:
        mod = importlib.import_module(f"polyberg.{module}")
        if hasattr(mod, "__all__"):
            declared.append(module)
            missing += [f"{module}.{name}" for name in mod.__all__ if not hasattr(mod, name)]
    assert "generators" in declared and len(declared) == len(modules) - 2
    assert missing == []


def test_no_module_keeps_an_unused_import_or_private_definition():
    # leftovers of a deletion: a name imported (anywhere in the module) that
    # the module never reads, or a module-level _private function or class
    # that nothing in its module references; a name in __all__ counts as read
    src = os.path.dirname(polyberg.__file__)
    leftovers = []
    for fname in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        nodes = list(ast.walk(tree))
        read = {node.id for node in nodes if isinstance(node, ast.Name)}
        read |= {const.value for node in nodes if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                 for const in ast.walk(node.value) if isinstance(const, ast.Constant)}
        imported = {(alias.asname or alias.name).split(".")[0] for node in nodes
                    if isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    for alias in node.names}
        private = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and node.name.startswith("_") and not node.name.startswith("__")}
        leftovers += [f"{fname}: {name}" for name in sorted((imported | private) - read)]
    assert leftovers == []



def test_only_the_antitriangular_report_reads_the_structure_tolerances():
    # one structure rule: every other structure test reads the report; a
    # read is charged to its innermost function, or to its module
    src = os.path.dirname(polyberg.__file__)
    tolerances = {"TOL_ZERO", "TOL_NONZERO"}
    readers = {}
    for fname in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, fname), encoding="utf-8") as fh:
            todo = [(fname, ast.parse(fh.read()))]
        while todo:
            scope, node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                scope = f"{fname}: {getattr(node, 'name', 'lambda')}"
            read = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    else getattr(node, "attr", None))
            if read in tolerances:
                readers.setdefault(scope, set()).add(read)
            todo += [(scope, child) for child in ast.iter_child_nodes(node)]
    assert readers == {"generators.py: antitriangular_report": tolerances}
