"""Fixed input pools of the benchmark workloads and the seeded schedules
drawn from them.

The gamma and check pools are built from the constant POOL_SEED, so the
mpmath references stored under refs/ stay valid.  A run of a per-process
workload executes a fixed selection of pool items (GAMMA_SCHEDULE, every
check item), and the workload seed sets their order.  The separate grid
takes its random vectors and its order from the workload seed; its
references (the indicator(0.5) witness blocks) do not depend on them.
Every run of a workload therefore does the same work and meets the same
documented defects, whatever the seed, which keeps the figures of two
runs comparable and their failure counts equal.
"""

from __future__ import annotations

import json
import math

import numpy as np

POOL_SEED = 2306_06231

# (n, alpha, xi_max) of the exact-path requests
GRID_EXACT = ((4, 1.0, 60), (8, 0.5, 120))
# (n, xi_max) of the float-path requests; alpha is drawn per item
GRID_FLOAT = ((4, 60), (8, 120))
# float-path weight exponents: multiples of 1/4 in [0, 3]
FLOAT_ALPHAS = tuple(0.25 * i for i in range(13))
ITEMS_PER_STRATUM = 4
# The exact path's cost grows with the polynomial degree and with p, so
# both are held in a narrow band.
POLY_DEGREE = 3
GP_LOWEST = 6
# Sampled-symbol cost grows with the table size, so each stratum has one
# size; the two n=4 strata span the 20..200-point range.  Item 0 of each
# is the all-ones table.
SAMPLED_POINTS = {4: (20, 200), 8: (110,)}

# separation session: n and alpha of the c07-style state grids
SEPARATE_NS = (2, 3, 4)
SEPARATE_ALPHAS = (0.0, 1.0)
SEPARATE_XI_TOP = 6


def sample_xis(n: int, xi_max: int) -> list:
    """Frequencies whose blocks are checked against the reference: the
    negative end, the first few, a Fibonacci ladder, 60 and xi_max."""
    ladder = {-n + 1, -1, 0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 60, 89, xi_max}
    return sorted(x for x in ladder if -n + 1 <= x <= xi_max)


def _round(v: float, digits: int = 4) -> float:
    return float(round(v, digits))


def _gamma_item(kind: str, n: int, alpha: float, xi_max: int, symbol: dict) -> dict:
    return {
        "op": "gamma",
        "kind": kind,
        "n": n,
        "alpha": alpha,
        "xi_max": xi_max,
        "symbol": symbol,
    }


def _exact_symbol(kind: str, rng) -> dict:
    if kind == "const":
        mag = rng.uniform(0.25, 2.0)
        return {"kind": "const", "value": _round(mag if rng.random() < 0.5 else -mag)}
    if kind == "poly_t":
        return {"kind": "poly_t", "coeffs": [_round(c) for c in rng.uniform(-1, 1, POLY_DEGREE + 1)]}
    if kind == "poly_t_complex":
        re = rng.uniform(-1, 1, POLY_DEGREE + 1)
        im = rng.uniform(-1, 1, POLY_DEGREE + 1)
        return {"kind": "poly_t", "coeffs": [[_round(a), _round(b)] for a, b in zip(re, im)]}
    if kind == "jacobi_g":
        return {"kind": "jacobi_g", "p": int(rng.integers(GP_LOWEST, 13))}
    raise ValueError(kind)


def _sampled_symbol(rng, m: int, ones: bool = False) -> dict:
    t_last = _round(rng.uniform(0.9, 0.98), 3)
    ts = np.linspace(0.0, t_last, m)
    if ones:
        vs = np.ones(m)
    else:
        amp = rng.uniform(-0.5, 0.5, 3)
        vs = 0.5 + sum(a * np.cos((k + 1) * math.pi * ts) for k, a in enumerate(amp))
    points = [[float(t), _round(v, 6)] for t, v in zip(ts, vs)]
    return {"kind": "sampled", "points": points, "limit": points[-1][1]}


def gamma_strata(workload: str) -> list:
    """Strata of the gamma-exact or gamma-float pool: a list of
    (stratum name, [items]), one stratum per symbol kind and request size."""
    rng = np.random.default_rng(POOL_SEED)
    strata = []
    if workload == "gamma-exact":
        for n, alpha, xi_max in GRID_EXACT:
            for kind in ("const", "poly_t", "poly_t_complex", "jacobi_g"):
                items = [
                    _gamma_item(kind, n, alpha, xi_max, _exact_symbol(kind, rng))
                    for _ in range(ITEMS_PER_STRATUM)
                ]
                strata.append((f"{kind}/n{n}", items))
        return strata
    if workload == "gamma-float":
        for n, xi_max in GRID_FLOAT:
            ind = []
            for _ in range(ITEMS_PER_STRATUM):
                alpha = float(rng.choice(FLOAT_ALPHAS))
                s = _round(rng.uniform(0.3, 0.95), 3)
                ind.append(_gamma_item("indicator", n, alpha, xi_max,
                                       {"kind": "indicator", "s": s}))
            if n == 8:
                # the documented indicator defect cases stay in the pool
                ind[0] = _gamma_item("indicator", 8, 1.0, xi_max, {"kind": "indicator", "s": 0.9})
                ind[1] = _gamma_item("indicator", 8, 0.5, xi_max, {"kind": "indicator", "s": 0.95})
            strata.append((f"indicator/n{n}", ind))
            for m in SAMPLED_POINTS[n]:
                smp = [
                    _gamma_item("sampled", n, float(rng.choice(FLOAT_ALPHAS)), xi_max,
                                _sampled_symbol(rng, m, ones=(i == 0)))
                    for i in range(ITEMS_PER_STRATUM)
                ]
                strata.append((f"sampled{m}/n{n}", smp))
        return strata
    raise ValueError(f"{workload} has no gamma pool")


CHECK_ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5)


def _oracle_symbol(rng) -> dict:
    kind = str(rng.choice(["const", "poly_t", "jacobi_g", "indicator"]))
    if kind == "const":
        return {"kind": "const", "value": _round(rng.uniform(0.25, 2.0))}
    if kind == "poly_t":
        return {"kind": "poly_t", "coeffs": [_round(c) for c in rng.uniform(-1, 1, 3)]}
    if kind == "jacobi_g":
        return {"kind": "jacobi_g", "p": int(rng.integers(0, 5))}
    return {"kind": "indicator", "s": _round(rng.uniform(0.3, 0.9), 3)}


def check_strata() -> list:
    """Strata of the check pool: four `verify` calls per n and eight
    `oracle` calls per n."""
    rng = np.random.default_rng(POOL_SEED + 1)
    strata = []
    for n in (2, 3, 4):
        items = [
            {"op": "verify", "n": n, "alpha": float(rng.choice(CHECK_ALPHAS)),
             "seed": int(rng.integers(0, 1000))}
            for _ in range(ITEMS_PER_STRATUM)
        ]
        strata.append((f"verify/n{n}", items))
    for n, xi_max in ((2, 6), (3, 4), (4, 4)):
        for half in range(2):
            items = [
                {"op": "oracle", "n": n, "alpha": float(rng.choice(CHECK_ALPHAS)),
                 "xi_max": xi_max, "symbol": _oracle_symbol(rng)}
                for _ in range(ITEMS_PER_STRATUM)
            ]
            strata.append((f"oracle/n{n}.{half}", items))
    # the documented oracle disagreement (g_4, n=3, alpha=0.5) stays in the pool
    strata[5][1][0] = {"op": "oracle", "n": 3, "alpha": 0.5, "xi_max": 4,
                       "symbol": {"kind": "jacobi_g", "p": 4}}
    return strata


# The gamma workload's selection: (pool, stratum, item indices).  Twenty
# n=4 requests and five n=8 requests, so the median op falls among many
# n=4 requests of nearby cost and does not jump between symbol kinds.
# Included on purpose: the documented spectral_norm defects (jacobi_g/n4
# item 0, poly_t/n8 item 3) and float-path defects (every n=8 float item,
# sampled n=4 items off the all-ones table).  Complex poly_t is requested
# at n=4 only, to keep a pass near 33 s.
GAMMA_SCHEDULE = (
    ("gamma-exact", "const/n4", (0, 1, 2, 3)),
    ("gamma-exact", "poly_t/n4", (0, 1, 2, 3)),
    ("gamma-exact", "poly_t_complex/n4", (0, 1)),
    ("gamma-exact", "jacobi_g/n4", (0, 1, 2, 3)),
    ("gamma-exact", "const/n8", (0,)),
    ("gamma-exact", "poly_t/n8", (3,)),
    ("gamma-exact", "jacobi_g/n8", (0,)),
    ("gamma-float", "indicator/n4", (0, 1, 2, 3)),
    ("gamma-float", "sampled20/n4", (0,)),
    ("gamma-float", "sampled200/n4", (1,)),
    ("gamma-float", "indicator/n8", (0,)),
    ("gamma-float", "sampled110/n8", (1,)),
)


def _shuffled(items: list, seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [items[i] for i in rng.permutation(len(items))]


def gamma_schedule(seed: int) -> list:
    """One pass of the gamma workload: the GAMMA_SCHEDULE items in a
    seeded order."""
    pools = {name: dict(gamma_strata(name)) for name in ("gamma-exact", "gamma-float")}
    items = [pools[name][stratum][i] for name, stratum, picks in GAMMA_SCHEDULE
             for i in picks]
    return _shuffled(items, seed)


def check_schedule(seed: int) -> list:
    """One pass of the check workload: every item of the check pool (12
    `verify` and 24 `oracle` calls) in a seeded order."""
    items = [item for _, group in check_strata() for item in group]
    return _shuffled(items, seed)


def cli_argv(item: dict, out_path: str | None) -> list:
    """polyberg command line of one pool item."""
    if item["op"] == "verify":
        return ["verify", "--n", str(item["n"]), "--alpha", repr(item["alpha"]),
                "--seed", str(item["seed"])]
    argv = [item["op"], "--n", str(item["n"]), "--alpha", repr(item["alpha"]),
            "--xi-max", str(item["xi_max"]),
            "--symbol", json.dumps(item["symbol"], separators=(",", ":"))]
    if item["op"] == "gamma":
        argv += ["--out", out_path]
    return argv


def item_key(item: dict) -> str:
    """Stable identifier of a pool item, the key of its reference."""
    return json.dumps(item, sort_keys=True, separators=(",", ":"))


def item_label(item: dict) -> str:
    """Short name of a pool item for reports: op, symbol kind and n."""
    kind = item.get("kind") or item.get("symbol", {}).get("kind")
    return f"{item['op']}/{kind}/n{item['n']}" if kind else f"{item['op']}/n{item['n']}"


def unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def state_grid(n: int, rng) -> list:
    """c07-style states as (xi, vector) pairs, xi None for the limit
    state: the basis vectors, normalized +-sums of basis pairs and one
    random complex vector per frequency, with proportional duplicates
    dropped."""
    states = [(None, None)]
    for xi in range(-n + 1, SEPARATE_XI_TOP + 1):
        d = min(n + xi, n)
        eye = np.eye(d)
        vecs = [eye[j] for j in range(d)]
        for j in range(d):
            for k in range(j + 1, d):
                vecs.append(unit(eye[j] + eye[k]))
                vecs.append(unit(eye[j] - eye[k]))
        vecs.append(unit(rng.normal(size=d) + 1j * rng.normal(size=d)))
        kept = []
        for v in vecs:
            if not any(abs(abs(np.vdot(v, w)) - 1.0) < 1e-10 for w in kept):
                kept.append(v)
        states.extend((xi, v) for v in kept)
    return states


def separate_pairs(seed: int) -> list:
    """Every distinct state pair of the grids for each (n, alpha), in a
    seeded order: a list of (n, alpha, state1, state2)."""
    rng = np.random.default_rng(seed)
    pairs = []
    for n in SEPARATE_NS:
        for alpha in SEPARATE_ALPHAS:
            states = state_grid(n, rng)
            for i, s1 in enumerate(states):
                for s2 in states[i + 1:]:
                    pairs.append((n, alpha, s1, s2))
    return [pairs[i] for i in rng.permutation(len(pairs))]
