"""Correctness of each op against the references.

An op fails when it raises, exits with a code other than the expected
one, or returns a value off the reference by more than
1e-10 * max(1, sup|a|).  For `gamma` that covers the block entries at the
sampled frequencies and the printed norm and tail-deviation table, which
is compared with the SVD of the reference block; the table prints six
decimals of mantissa, so half a unit of its last printed digit is added
to the tolerance there.

Every failure is also classed as known or new.  Known failures are the
documented accuracy defects of the package:

- float-path entries: indicator and sampled symbols (truncated moments
  and panel quadrature) are off at large n and frequency;
- spectral_norm underestimates the norm of near-degenerate blocks;
- the 2D oracle disagrees with the entry integrals at a non-integer alpha.

They count in `failed` like any other failure; `correct` is false only
when some failure is new.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

REL_TOL = 1e-10
FLOAT_PATH_KINDS = ("indicator", "sampled")
GAP_MIN = 1e-8


@dataclass
class Verdict:
    ok: bool = True
    known: bool = True          # every failure reason is a documented defect
    reasons: list = field(default_factory=list)
    max_abs_err: float = 0.0    # largest entry-integral error against the reference
    blocks: int = 0             # blocks delivered
    out_bytes: int = 0

    def fail(self, reason: str, known: bool) -> None:
        self.ok = False
        self.known = self.known and known
        if len(self.reasons) < 4:
            self.reasons.append(reason)


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(*v) if isinstance(v, list) else v for v in row] for row in rows])


def _half_ulp(text: str) -> float:
    """Half a unit in the last digit of a '%.6e' number."""
    return 0.5 * 10.0 ** (int(text.split("e")[1]) - 6)


def parse_norm_table(stdout: str) -> dict:
    """{xi: (norm text, tail text or None)} from the `gamma --out` table."""
    rows = {}
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("xi order norm"):
        raise ValueError("missing norm table header")
    for line in lines[1:]:
        parts = line.split()
        rows[int(parts[0])] = (parts[2], parts[3] if len(parts) > 3 else None)
    return rows


def gamma_op(item: dict, ref: dict, returncode: int, stdout: str, out_text: str | None) -> Verdict:
    v = Verdict()
    if returncode != 0:
        v.fail(f"exit code {returncode}", known=False)
        return v
    n, xi_max = item["n"], item["xi_max"]
    try:
        seq = json.loads(out_text)
        table = parse_norm_table(stdout)
    except (TypeError, ValueError, IndexError) as exc:
        v.fail(f"unreadable output: {exc}", known=False)
        return v
    v.out_bytes = len(out_text.encode())
    mats = seq.get("matrices", [])
    v.blocks = len(mats)
    if [m["xi"] for m in mats] != list(range(-n + 1, xi_max + 1)):
        v.fail("output does not cover every frequency", known=False)
        return v
    float_path = item["symbol"]["kind"] in FLOAT_PATH_KINDS
    tol = REL_TOL * max(1.0, ref["sup_abs"])
    for xi_s, blk in ref["blocks"].items():
        xi = int(xi_s)
        want = _matrix(blk["rows"])
        got = _matrix(mats[xi + n - 1]["rows"])
        if got.shape != want.shape:
            v.fail(f"block {xi} has shape {got.shape}", known=False)
            continue
        err = float(np.max(np.abs(got - want)))
        v.max_abs_err = max(v.max_abs_err, err)
        if err > tol:
            v.fail(f"entries off by {err:.2e} at xi={xi}", known=float_path)
        printed = table.get(xi)
        if printed is None:
            v.fail(f"no norm row for xi={xi}", known=False)
            continue
        for label, text, want_val in (("norm", printed[0], blk["norm"]),
                                      ("tail", printed[1], blk.get("tail"))):
            if want_val is None:
                continue
            if text is None:
                v.fail(f"no {label} printed for xi={xi}", known=False)
                continue
            got_val = float(text)
            if abs(got_val - want_val) > tol + _half_ulp(text):
                under = got_val < want_val
                v.fail(f"{label} {text} vs {want_val:.6e} at xi={xi}",
                       known=float_path or under)
    return v


_SUMMARY = re.compile(r"^(\d+)/(\d+) checks passed")
_WORST = re.compile(r"^worst disagreement: (\S+)")


def check_op(item: dict, returncode: int, stdout: str) -> Verdict:
    """`verify` and `oracle` calls: expected exit code 0, and a summary
    line that agrees with the exit code."""
    v = Verdict()
    last = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    if item["op"] == "verify":
        m = _SUMMARY.match(last)
        if m is None:
            v.fail("no verify summary line", known=False)
        elif (m.group(1) == m.group(2)) != (returncode == 0):
            v.fail(f"summary '{last}' disagrees with exit code {returncode}", known=False)
        if returncode != 0:
            fails = [ln for ln in stdout.splitlines() if ln.startswith("FAIL")]
            v.fail(f"exit code {returncode}: {fails[:2]}", known=False)
        return v
    m = _WORST.match(last)
    if m is None:
        v.fail("no oracle summary line", known=False)
        return v
    worst = float(m.group(1))
    if (worst < 1e-6) != (returncode == 0):
        v.fail(f"worst {worst:.2e} disagrees with exit code {returncode}", known=False)
    if returncode != 0:
        v.fail(f"exit code {returncode}: worst disagreement {worst:.2e}",
               known=not float(item["alpha"]).is_integer())
    return v


def _proportional(u, w) -> bool:
    return abs(abs(np.vdot(u, w)) - 1.0) <= 1e-10


def _e0(d: int) -> np.ndarray:
    e = np.zeros(d)
    e[0] = 1.0
    return e


def expect_refusal(n: int, alpha: float, s1, s2) -> bool:
    """The documented coincidence families: frequencies -eta and eta with
    first basis vectors, and frequency 0 with the alpha-built vector
    against frequency 2 with the first basis vector."""
    if s1[0] is None or s2[0] is None:
        return False
    lo, hi = (s1, s2) if s1[0] <= s2[0] else (s2, s1)
    if lo[0] < 0 and hi[0] == -lo[0]:
        return _proportional(lo[1], _e0(len(lo[1]))) and _proportional(hi[1], _e0(len(hi[1])))
    if (lo[0], hi[0]) == (0, 2):
        u = np.zeros(n)
        u[0] = np.sqrt((alpha + 3.0) / (2.0 * (alpha + 2.0)))
        u[1] = np.sqrt((alpha + 1.0) / (2.0 * (alpha + 2.0)))
        return _proportional(lo[1], u) and _proportional(hi[1], _e0(n))
    return False


def _quad(u, m) -> complex:
    return complex(np.vdot(u, m @ u))


def _canonical(block: np.ndarray) -> np.ndarray | None:
    """The matrix-unit combination the witness block should equal: E_pp,
    E_pq + E_qp or i(E_pq - E_qp); None when the rounded block is none of
    these."""
    c = np.round(block.real) + 1j * np.round(block.imag)
    nz = [tuple(ix) for ix in np.argwhere(c != 0)]
    if len(nz) == 1 and nz[0][0] == nz[0][1] and c[nz[0]] == 1:
        return c
    if len(nz) == 2:
        (p, q), (r, s) = nz
        if (r, s) == (q, p) and p != q and {complex(c[p, q]), complex(c[q, p])} in (
                {1 + 0j}, {1j, -1j}):
            return c
    return None


def separate_op(n: int, alpha: float, s1, s2, outcome: tuple, ind_ref: dict) -> Verdict:
    """One `separate` call.  outcome is ("ok", witness, values),
    ("refused", message) or ("raised", message).  The witness block at each
    state's frequency is checked against the exact matrix-unit algebra, or
    for a limit-state pair against the reference indicator(0.5) block."""
    v = Verdict()
    refuse = expect_refusal(n, alpha, s1, s2)
    if outcome[0] == "raised":
        v.fail(f"raised {outcome[1]}", known=False)
        return v
    if outcome[0] == "refused":
        if not refuse:
            v.fail(f"refused a separable pair: {outcome[1]}", known=False)
        return v
    if refuse:
        v.fail("separated a documented coincidence pair", known=False)
        return v
    witness, vals = outcome[1], outcome[2]
    v.blocks = len(witness.blocks)
    expected = []
    known = False
    if s1[0] is None or s2[0] is None:
        fin = s2 if s1[0] is None else s1
        want = np.array(ind_ref[str(fin[0])])
        got = witness.block(fin[0])
        v.max_abs_err = float(np.max(np.abs(got - want)))
        plan_err = 0.0
        known = True  # the indicator witness takes the float path
        if v.max_abs_err > REL_TOL:
            v.fail(f"indicator witness block off by {v.max_abs_err:.2e}", known=True)
        if witness.scalar_limit != 0.0:
            v.fail(f"indicator witness limit {witness.scalar_limit}", known=False)
        expected = [0.0 if s[0] is None else _quad(s[1], want).real for s in (s1, s2)]
    elif s1[0] == s2[0]:
        got = witness.block(s1[0])
        canon = _canonical(got)
        if canon is None:
            v.fail("witness block is no matrix-unit combination", known=False)
            return v
        plan_err = float(np.max(np.abs(got - canon)))
        expected = [_quad(s[1], canon).real for s in (s1, s2)]
    else:
        lo, hi = (s1, s2) if s1[0] < s2[0] else (s2, s1)
        got_hi, got_lo = witness.block(hi[0]), witness.block(lo[0])
        canon = _canonical(got_hi)
        if canon is None or np.count_nonzero(canon) != 1:
            v.fail("witness block is no diagonal matrix unit", known=False)
            return v
        plan_err = max(float(np.max(np.abs(got_hi - canon))), float(np.max(np.abs(got_lo))))
        expected = [_quad(s[1], canon).real if s is hi else 0.0 for s in (s1, s2)]
    if plan_err > REL_TOL:
        v.fail(f"witness block off by {plan_err:.2e}", known=False)
    for got_val, want_val in zip(vals, expected):
        if abs(got_val - want_val) > REL_TOL:
            v.fail(f"state value {got_val!r} vs {want_val!r}", known=known)
    if abs(expected[0] - expected[1]) <= GAP_MIN:
        v.fail(f"gap {abs(expected[0] - expected[1]):.2e} below {GAP_MIN}", known=False)
    return v
