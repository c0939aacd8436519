"""The functions the benchmark's traced mode wraps exist in the package.

perfbench/spans.py wraps every name of its TRACED table by attribute
lookup, so a renamed function breaks the traced mode, and its own tests
are not part of this suite.  TRACED is read from the source, without
importing anything from perfbench/.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced() -> dict:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no TRACED table")


def test_traced_names_resolve():
    missing = []
    for short, names in _traced().items():
        mod = importlib.import_module(f"polyberg.{short}")
        for name in names:
            obj = mod
            for part in name.split("."):  # "Class.method" names a method
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{short}.{name}")
    assert not missing


def test_generator_block_keeps_its_cache():
    # the generators.generator_block.hit_ratio row reads its cache_info
    from polyberg.generators import generator_block

    assert generator_block.__module__ == "polyberg.generators"
    assert generator_block.cache_info().maxsize is not None


def test_witness_caches_are_bounded():
    # every separation witness is read from one of these caches
    from polyberg.purestates import _symbol_witness, _unit_witness

    assert _symbol_witness.cache_info().maxsize is not None
    assert _unit_witness.cache_info().maxsize is not None
