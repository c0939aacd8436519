"""Command-line surface: compute sequences, evaluate and separate pure
states, demo the matrix-unit reconstruction, cross-check against the 2D
disk oracle, and run the invariant suite.

Exit codes: 0 success, 1 failed verification, 2 bad input, 3 states not
separable.  A sequence's blocks come from one stacked call over all its
frequencies (integration.entry_blocks).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import verify as verify_mod
from .gammaseq import (
    block_csv,
    block_order,
    frequencies,
    gamma_sequence,
    seq_to_json_obj,
    spectral_norm,
    tail_deviation,
)
from .generators import SeparationPlan, generator_family
from .purestates import (
    NotSeparableError,
    PureState,
    eval_state,
    finite_state,
    limit_state,
    separation,
)
from .symbols import symbol_from_json_obj, symbol_to_json_obj

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NOT_SEPARABLE = 3


def _load_symbol(spec: str, alpha: float):
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = spec
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"symbol is not valid JSON: {exc}") from exc
    return symbol_from_json_obj(obj, alpha=alpha)


def _parse_state(spec: str, n: int) -> PureState:
    if spec.strip().lower() == "inf":
        return limit_state()
    try:
        head, _, tail = spec.partition(":")
        xi = int(head)
        vec = np.array([complex(c) for c in tail.split(",")])
    except ValueError as exc:
        raise ValueError(
            f"state must be 'inf' or '<xi>:<c1,c2,...>', got {spec!r}"
        ) from exc
    d = block_order(n, xi)
    if vec.shape != (d,):
        raise ValueError(
            f"state at frequency {xi} needs a vector of dimension {d}, "
            f"got {vec.shape[0]}"
        )
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        raise ValueError("state vector must be nonzero")
    return finite_state(xi, vec / nrm)


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)


def cmd_gamma(args) -> int:
    a = _load_symbol(args.symbol, args.alpha)
    seq = gamma_sequence(a, args.n, args.alpha, args.xi_max)
    if args.format == "json":
        payload = json.dumps(seq_to_json_obj(seq), indent=2)
    else:
        payload = block_csv(seq, args.xi)
    _write_output(payload, args.out)
    sink = sys.stdout if args.out else sys.stderr
    print("xi order norm" + (" tail_deviation" if seq.scalar_limit is not None else ""),
          file=sink)
    for xi in frequencies(seq.n, seq.xi_max):
        b = seq.block(xi)
        row = f"{xi:3d} {b.shape[0]:5d} {spectral_norm(b):.6e}"
        if seq.scalar_limit is not None and xi >= 0:
            row += f" {tail_deviation(seq, xi):.6e}"
        print(row, file=sink)
    return EXIT_OK


def cmd_purestate(args) -> int:
    a = _load_symbol(args.symbol, args.alpha)
    state = _parse_state(args.state[0], args.n)
    xi_top = args.xi_max if state.is_limit else max(args.xi_max, state.xi, 0)
    seq = gamma_sequence(a, args.n, args.alpha, xi_top)
    val = eval_state(state, seq)
    print(f"state value: {val}")
    return EXIT_OK


def cmd_separate(args) -> int:
    if len(args.state) != 2:
        print("separate needs exactly two --state arguments", file=sys.stderr)
        return EXIT_USAGE
    s1 = _parse_state(args.state[0], args.n)
    s2 = _parse_state(args.state[1], args.n)
    witness_symbol = _load_symbol(args.symbol, args.alpha) if args.symbol else None
    try:
        _, vals, recipe = separation(
            s1, s2, args.n, args.alpha, infinity_witness=witness_symbol
        )
    except NotSeparableError as exc:
        print(f"not separable by construction: {exc}", file=sys.stderr)
        return EXIT_NOT_SEPARABLE
    for key, value in recipe.items():
        print(f"witness {key}: " + json.dumps(value, default=_recipe_json))
    print(f"sigma_1 = {vals[0]}")
    print(f"sigma_2 = {vals[1]}")
    gap = abs(vals[0] - vals[1])
    print(f"gap = {gap}")
    return EXIT_OK if gap > 1e-8 else EXIT_NOT_SEPARABLE


def _recipe_json(obj):
    # the plans and symbols of a separation recipe
    return obj.to_json_obj() if isinstance(obj, SeparationPlan) else symbol_to_json_obj(obj)


def cmd_basis(args) -> int:
    _, gs, table = generator_family(
        args.n, args.alpha, args.xi, args.tol_zero, args.tol_nonzero
    )
    errs = verify_mod.matrix_unit_errors(gs, table)
    for (p, q), err in np.ndenumerate(errs):
        print(f"unit ({p},{q}): max entry error {err:.3e}")
    worst = float(errs.max())
    print(f"worst reconstruction error: {worst:.3e}")
    return EXIT_OK if worst < 1e-8 else EXIT_FAIL


def cmd_oracle(args) -> int:
    a = _load_symbol(args.symbol, args.alpha)
    worst = 0.0
    for xi, gap in verify_mod.oracle_gaps(a, args.n, args.alpha, args.xi_max).items():
        worst = max(worst, gap)
        print(f"xi = {xi}: cumulative max |2d - exact| = {worst:.3e}")
    print(f"worst disagreement: {worst:.3e}")
    return EXIT_OK if worst < 1e-6 else EXIT_FAIL


def cmd_verify(args) -> int:
    results = verify_mod.run_all(
        args.n, args.alpha, args.seed, args.tol_zero, args.tol_nonzero
    )
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        tag = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[r.status]
        print(f"{tag}  {r.name:<{width}}  {r.detail}")
        failed += r.status == "fail"
    print(f"{len(results) - failed}/{len(results)} checks passed"
          + (f", {failed} failed" if failed else ""))
    return EXIT_OK if failed == 0 else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyberg",
        description="Frequency-indexed matrix model of radial Toeplitz operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, symbol=False):
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--alpha", type=float, default=0.0)
        if symbol:  # the commands that take a symbol compute its sequence
            p.add_argument("--xi-max", dest="xi_max", type=int, default=8)
            p.add_argument("--symbol", required=True, help="symbol JSON or @file path")

    def tolerances(p):
        p.add_argument("--tol-zero", dest="tol_zero", type=float, default=1e-10)
        p.add_argument("--tol-nonzero", dest="tol_nonzero", type=float, default=1e-8)

    p_gamma = sub.add_parser("gamma", help="compute and export a matrix sequence")
    common(p_gamma, symbol=True)
    p_gamma.add_argument("--format", choices=("json", "csv"), default="json")
    p_gamma.add_argument("--xi", type=int, default=0, help="frequency for CSV export")
    p_gamma.add_argument("--out", default=None)
    p_gamma.set_defaults(fn=cmd_gamma)

    p_state = sub.add_parser("purestate", help="evaluate a pure state on a sequence")
    common(p_state, symbol=True)
    p_state.add_argument("--state", action="append", required=True)
    p_state.set_defaults(fn=cmd_purestate)

    p_sep = sub.add_parser("separate", help="separate two pure states")
    common(p_sep)
    p_sep.add_argument("--symbol", default=None, help="witness symbol for limit-state pairs")
    p_sep.add_argument("--state", action="append", required=True)
    p_sep.set_defaults(fn=cmd_separate)

    p_basis = sub.add_parser("basis", help="matrix-unit reconstruction demo")
    common(p_basis)
    tolerances(p_basis)
    p_basis.add_argument("--xi", type=int, default=0)
    p_basis.set_defaults(fn=cmd_basis)

    p_oracle = sub.add_parser("oracle", help="cross-check entries against 2D quadrature")
    common(p_oracle, symbol=True)
    p_oracle.set_defaults(fn=cmd_oracle)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--n", type=int, default=3)
    p_verify.add_argument("--alpha", type=float, default=None)
    p_verify.add_argument("--seed", type=int, default=0)
    tolerances(p_verify)
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
