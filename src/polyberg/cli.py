"""Command-line surface: compute sequences, evaluate and separate pure
states, demo the matrix-unit reconstruction, cross-check against the 2D
disk oracle, and run the invariant suite.

Exit codes: 0 success, 1 failed verification, 2 bad input, 3 states not
separable.  A sequence's blocks come from one stacked call over all its
frequencies (integration.entry_blocks).  The generator, pure-state and
verification modules are imported by the commands that use them, so a
`gamma` process loads only the sequence path.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .purestates import PureState

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NOT_SEPARABLE = 3


def _load_symbol(spec: str, alpha: float):
    from .symbols import symbol_from_json_obj

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
    import numpy as np

    from .gammaseq import block_order
    from .purestates import finite_state, limit_state

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
    if not np.isfinite(vec).all():
        raise ValueError(f"state vector must be finite, got {vec}")
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        raise ValueError("state vector must be nonzero")
    return finite_state(xi, vec / nrm)


def cmd_gamma(args) -> int:
    import numpy as np

    from .gammaseq import (block_csv, block_order, frequencies, gamma_sequence,
                           seq_to_json_obj, spectral_norm)

    a = _load_symbol(args.symbol, args.alpha)
    seq = gamma_sequence(a, args.n, args.alpha, args.xi_max)
    if args.format == "json":
        payload = json.dumps(seq_to_json_obj(seq))
    else:
        payload = block_csv(seq, args.xi)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        print(payload)
    sink = sys.stdout if args.out else sys.stderr
    n = seq.n
    print("xi order norm tail_deviation", file=sink)
    # one stacked SVD per column: padding adds only zero singular values,
    # and the tail column reads the blocks of xi >= 0, which are unpadded
    norms = spectral_norm(seq.blocks)
    tails = spectral_norm(seq.blocks[n - 1:] - seq.scalar_limit * np.eye(n))
    for i, xi in enumerate(frequencies(n, seq.xi_max)):
        row = f"{xi:3d} {block_order(n, xi):5d} {norms[i]:.6e}"
        if xi >= 0:
            row += f" {tails[xi]:.6e}"
        print(row, file=sink)
    return EXIT_OK


def cmd_purestate(args) -> int:
    if len(args.state) != 1:
        print("purestate needs exactly one --state argument", file=sys.stderr)
        return EXIT_USAGE
    from .gammaseq import gamma_sequence
    from .purestates import eval_state

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
    from .purestates import NotSeparableError, separation
    from .symbols import symbol_to_json_obj

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
        print(f"witness {key}: " + json.dumps(value, default=symbol_to_json_obj))
    print(f"sigma_1 = {vals[0]}")
    print(f"sigma_2 = {vals[1]}")
    print(f"gap = {abs(vals[0] - vals[1])}")
    return EXIT_OK


def cmd_basis(args) -> int:
    import numpy as np

    from .generators import generator_family, matrix_unit_errors

    errs = matrix_unit_errors(generator_family(args.n, args.alpha, args.xi)[1])
    for (p, q), err in np.ndenumerate(errs):
        print(f"unit ({p},{q}): max entry error {err:.3e}")
    worst = float(errs.max())
    print(f"worst reconstruction error: {worst:.3e}")
    return EXIT_OK if worst < 1e-8 else EXIT_FAIL


def cmd_oracle(args) -> int:
    from .bergman_oracle import oracle_gaps

    a = _load_symbol(args.symbol, args.alpha)
    worst = 0.0
    for xi, gap in oracle_gaps(a, args.n, args.alpha, args.xi_max).items():
        # a NaN gap is kept: max(0.0, nan) would drop it
        if gap > worst or math.isnan(gap):
            worst = gap
        print(f"xi = {xi}: cumulative max |2d - exact| = {worst:.3e}")
    print(f"worst disagreement: {worst:.3e}")
    return EXIT_OK if worst < 1e-6 else EXIT_FAIL


def cmd_verify(args) -> int:
    from .verify import run_all

    results = run_all(args.n, args.alpha, args.seed)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        tag = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[r.status]
        print(f"{tag}  {r.name:<{width}}  {r.detail}")
        failed += r.status == "fail"
    print(f"{len(results) - failed}/{len(results)} checks passed"
          + (f", {failed} failed" if failed else ""))
    return EXIT_OK if failed == 0 else EXIT_FAIL


COMMANDS = ("gamma", "purestate", "separate", "basis", "oracle", "verify")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or only of the one argv names
    first: a subcommand's help, usage and errors are its own parser's, so
    they read the same either way.  The top-level help, no command and
    an unknown one list every subcommand."""
    wanted = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    parser = argparse.ArgumentParser(
        prog="polyberg",
        description="Frequency-indexed matrix model of radial Toeplitz operators",
    )
    # with one subcommand built, the usage of an "unrecognized arguments"
    # error still lists them all
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        None if wanted is COMMANDS else "{" + ",".join(COMMANDS) + "}"))

    def common(p, symbol=False):
        p.add_argument("--n", type=int, default=2)
        p.add_argument("--alpha", type=float, default=0.0)
        if symbol:  # the commands that take a symbol compute its sequence
            p.add_argument("--xi-max", dest="xi_max", type=int, default=8)
            p.add_argument("--symbol", required=True, help="symbol JSON or @file path")

    if "gamma" in wanted:
        p_gamma = sub.add_parser("gamma", help="compute and export a matrix sequence")
        common(p_gamma, symbol=True)
        p_gamma.add_argument("--format", choices=("json", "csv"), default="json")
        p_gamma.add_argument("--xi", type=int, default=0, help="frequency for CSV export")
        p_gamma.add_argument("--out", default=None)
        p_gamma.set_defaults(fn=cmd_gamma)

    if "purestate" in wanted:
        p_state = sub.add_parser("purestate", help="evaluate a pure state on a sequence")
        common(p_state, symbol=True)
        p_state.add_argument("--state", action="append", required=True)
        p_state.set_defaults(fn=cmd_purestate)

    if "separate" in wanted:
        p_sep = sub.add_parser("separate", help="separate two pure states")
        common(p_sep)
        p_sep.add_argument("--symbol", default=None, help="witness symbol for limit-state pairs")
        p_sep.add_argument("--state", action="append", required=True)
        p_sep.set_defaults(fn=cmd_separate)

    if "basis" in wanted:
        p_basis = sub.add_parser("basis", help="matrix-unit reconstruction demo")
        common(p_basis)
        p_basis.add_argument("--xi", type=int, default=0)
        p_basis.set_defaults(fn=cmd_basis)

    if "oracle" in wanted:
        p_oracle = sub.add_parser("oracle", help="cross-check entries against 2D quadrature")
        common(p_oracle, symbol=True)
        p_oracle.set_defaults(fn=cmd_oracle)

    if "verify" in wanted:
        p_verify = sub.add_parser("verify", help="run the invariant suite")
        p_verify.add_argument("--n", type=int, default=3)
        p_verify.add_argument("--alpha", type=float, default=None)
        p_verify.add_argument("--seed", type=int, default=0)
        p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run one polyberg command and return its exit code.

    The cyclic collector is off while the command parses and runs: a
    one-shot process makes few cycles and returns its memory at exit, so
    the young-generation collections that numpy's import and the checks
    would trigger are pure cost.  Every exit, argparse's SystemExit included, then leaves the
    collector frozen (gc.freeze) and re-enables it if it was enabled on
    entry.  At exit the interpreter runs full collections over every
    tracked object, mostly numpy's import-time heap, even with the
    collector disabled; they skip frozen objects, so a one-shot process
    skips that work (see the README).  A caller that runs main in-process
    and keeps going gets its collector state back, and may call
    gc.unfreeze() to let the collector see those objects again."""
    argv = sys.argv[1:] if argv is None else argv
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser(argv).parse_args(argv)
        try:
            return args.fn(args)
        except (ValueError, IndexError, OSError, OverflowError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
