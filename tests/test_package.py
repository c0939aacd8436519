"""The package loads its modules on demand.

`import polyberg` loads no module; each public name is imported from its
module on first lookup, so a `polyberg gamma` process loads only the
sequence path.
"""

import importlib
import os
import subprocess
import sys

import pytest

import polyberg

GAMMA_PATH = {"cli", "gammaseq", "integration", "jacobi", "special_fn", "symbols"}


def test_cli_import_loads_only_the_sequence_path():
    # and not fractions, which loads decimal: only the exact oracles use it
    src = os.path.dirname(os.path.dirname(polyberg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, polyberg.cli; "
            "print(' '.join(m for m in sys.modules "
            "if m.startswith('polyberg.') or m in ('fractions', 'decimal')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert {m.removeprefix("polyberg.") for m in out.split()} == GAMMA_PATH


def _cli_run(argv, timeout=60):
    """Exit code of `polyberg <argv>` in a fresh interpreter, the polyberg
    modules it loaded (without the prefix), and which of numpy.polynomial,
    fractions and decimal it loaded."""
    src = os.path.dirname(os.path.dirname(polyberg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; from polyberg.cli import main; "
            f"code = main({argv!r}); "
            "print(code, *(m for m in sys.modules if m.startswith('polyberg.') "
            "or m in ('numpy.polynomial', 'fractions', 'decimal')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=timeout).stdout
    code, *loaded = out.splitlines()[-1].split()
    modules = {m.removeprefix("polyberg.") for m in loaded if m.startswith("polyberg.")}
    return int(code), modules, set(loaded) - {f"polyberg.{m}" for m in modules}


def test_oracle_loads_only_the_sequence_path_and_the_oracle():
    # the comparison reads gamma_sequence; generators, purestates and
    # verify stay unloaded, and the closed-form Gauss-Legendre rule needs
    # no numpy.polynomial
    code, modules, others = _cli_run(
        ["oracle", "--n", "2", "--xi-max", "1", "--symbol", '{"kind":"const","value":1}'])
    assert code == 0
    assert modules == GAMMA_PATH | {"bergman_oracle"}
    assert "numpy.polynomial" not in others


def test_verify_loads_no_exact_rationals():
    # verify reads float coefficients off the integer path; fractions and
    # decimal stay for the test oracles
    code, _, others = _cli_run(["verify", "--n", "2", "--seed", "0"], timeout=120)
    assert code == 0
    assert not others & {"fractions", "decimal"}


def test_verify_loads_no_oracle():
    # no check of `polyberg verify` runs the 2D quadrature
    code, modules, _ = _cli_run(["verify", "--n", "3", "--seed", "1"], timeout=120)
    assert code == 0
    assert "bergman_oracle" not in modules


def test_basis_loads_only_the_sequence_path_and_the_generators():
    code, modules, _ = _cli_run(["basis", "--n", "3", "--alpha", "0.5", "--xi", "2"])
    assert code == 0
    assert modules == GAMMA_PATH | {"generators"}


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
