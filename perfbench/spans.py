"""In-memory spans around the public functions of each polyberg module.

install() wraps every function named in TRACED and rebinds the wrapper
under every name a caller can look it up by: the defining module, each
polyberg module that imported the function by name, and the package
namespace.  Methods are rebound on their class.  Nothing under src/
changes; the wrappers live only in the traced process.

A span is (name, parent span, start, end).  Spans stay in memory until
dump() writes them, together with the cache_info() of every lru-cached
object in the package, in one .npz file.  self_times() turns spans into
per-name call counts and self times (span time minus the time its child
spans cover).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

TRACED = {
    "special_fn": ("reg_incomplete_beta", "log_gamma"),
    "jacobi": ("q_coeffs_exact", "norm_coeff_sq_exact", "q_eval"),
    "symbols": ("make_gp", "eval_at_t"),
    "integration": ("beta_entry", "norm_product"),
    "gammaseq": ("gamma_matrix", "spectral_norm", "tail_deviation", "seq_to_json_obj"),
    "generators": ("generator_block", "nu_table", "SeparationPlan.evaluate", "matrix_unit"),
    "purestates": ("separate", "eval_state", "eval_state_integral"),
    "bergman_oracle": ("toeplitz_entry_2d", "disk_poly"),
    "cli": ("main",),
    "verify": ("run_all",),
}
# beta_entry spans are split by the symbol kind of their first argument
BETA_ENTRY_KINDS = ("const", "poly_t", "jacobi_g", "indicator", "sampled")


class Recorder:
    """Span store of one process."""

    def __init__(self) -> None:
        self.names: list = []
        self.name_ids: dict = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name: str, by_kind: bool = False):
        nid = None if by_kind else self.name_id(name)
        kind_ids = {k: self.name_id(f"{name}.{k}") for k in BETA_ENTRY_KINDS} if by_kind else {}
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(kind_ids[args[0].kind] if by_kind else nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        if hasattr(fn, "cache_info"):  # cache_infos() finds caches through it
            traced.cache_info = fn.cache_info
        return traced


def _modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "polyberg" or k.startswith("polyberg."))]


def install(recorder: Recorder) -> None:
    """Wrap every TRACED function of the polyberg package."""
    for short in TRACED:
        importlib.import_module(f"polyberg.{short}")
    modules = _modules()
    for short, names in TRACED.items():
        mod = sys.modules[f"polyberg.{short}"]
        for name in names:
            label = f"{short}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, recorder.wrap(getattr(cls, meth), label))
                continue
            fn = getattr(mod, name)
            wrapped = recorder.wrap(fn, label, by_kind=(name == "beta_entry"))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        setattr(m, attr, wrapped)


def cache_infos() -> dict:
    """{module: [[name, hits, misses, currsize], ...]} over every
    lru-cached object defined in a polyberg module."""
    out = {}
    for m in _modules():
        found = {}
        for val in vars(m).values():
            info = getattr(val, "cache_info", None)
            if info is not None and getattr(val, "__module__", None) == m.__name__:
                # a traced wrapper shares the bound cache_info of its cache
                found[id(info.__self__)] = (val.__name__, info())
        if found:
            out[m.__name__.split(".")[-1]] = [
                [name, ci.hits, ci.misses, ci.currsize] for name, ci in found.values()]
    return out


def snapshot(recorder: Recorder, extra: dict | None = None) -> dict:
    """The spans and cache figures of this process as arrays."""
    meta = {"names": recorder.names, "caches": cache_infos()}
    meta.update(extra or {})
    return {
        "name": np.frombuffer(recorder.name_of, dtype=np.int32),
        "parent": np.frombuffer(recorder.parent, dtype=np.int64),
        "start": np.frombuffer(recorder.start, dtype=np.float64),
        "end": np.frombuffer(recorder.end, dtype=np.float64),
        "meta": meta,
    }


def dump(recorder: Recorder, path: str, extra: dict | None = None) -> None:
    """Write the spans and cache figures of this process."""
    snap = snapshot(recorder, extra)
    meta = np.frombuffer(json.dumps(snap.pop("meta")).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, meta=meta, **snap)


def load(path: str) -> dict:
    with np.load(path) as z:
        out = {k: z[k] for k in ("name", "parent", "start", "end")}
        out["meta"] = json.loads(z["meta"].tobytes().decode())
    return out


def self_times(spans: dict) -> dict:
    """{name: [calls, self_s]} of one process's spans."""
    dur = spans["end"] - spans["start"]
    covered = np.zeros_like(dur)
    has_parent = spans["parent"] >= 0
    np.add.at(covered, spans["parent"][has_parent], dur[has_parent])
    own = dur - covered
    names = spans["meta"]["names"]
    calls = np.bincount(spans["name"], minlength=len(names))
    selfs = np.bincount(spans["name"], weights=own, minlength=len(names))
    return {n: [int(calls[i]), float(selfs[i])] for i, n in enumerate(names)}
