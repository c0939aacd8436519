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


def test_oracle_loads_only_the_sequence_path_and_the_oracle():
    # the comparison reads gamma_sequence; generators, purestates and
    # verify stay unloaded
    src = os.path.dirname(os.path.dirname(polyberg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; from polyberg.cli import main; "
            "code = main(['oracle', '--n', '2', '--xi-max', '1', "
            "'--symbol', '{\"kind\":\"const\",\"value\":1}']); "
            "print(code, *(m for m in sys.modules if m.startswith('polyberg.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    code, *modules = out.splitlines()[-1].split()
    assert code == "0"
    assert {m.removeprefix("polyberg.") for m in modules} == GAMMA_PATH | {"bergman_oracle"}


def test_verify_loads_no_exact_rationals():
    # verify reads float coefficients off the integer path; fractions and
    # decimal stay for the test oracles
    src = os.path.dirname(os.path.dirname(polyberg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; from polyberg.cli import main; "
            "code = main(['verify', '--n', '2', '--seed', '0']); "
            "print(code, *(m for m in ('fractions', 'decimal') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.splitlines()[-1] == "0"


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
