"""Benchmark of polyberg: cold CLI `gamma` on the exact and the float
path, a warm separation session, and the `verify`/`oracle` path.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run it from the root of a checkout.  Workloads (see BENCHMARK.json):
gamma, separate, check.  Each has a fixed schedule of ops in a seeded
order (see pool.py) that takes about PASS_SECONDS on a 2-vCPU VM; a run
executes as many whole passes of it as fit in T seconds at that pace, at
least one, so every run does the same work.  Every op is checked against
the mpmath references in perfbench/refs/ (made by make_refs.py).

--trace 0 measures the end-to-end metrics with tracing off.  Op timings
(the ref_ metrics) and setup_s are reported at reference host speed (see
PROBE_REF_S) and, in the report, as measured too.  --trace 1
runs one pass untraced, then the same pass again with spans on, and
reports the per-layer metrics and the tracing overhead (traced wall time
minus untraced wall time of those ops).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
readable report.  `failed` counts every failed op, documented defects
included; `correct` is false when a failure is not one of the documented
defects (see check.py).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pool  # noqa: E402
from workload import TMP_DIR, child_env, cold_probe  # noqa: E402

WORKLOADS = ("gamma", "separate", "check")
PASS_SECONDS = {"gamma": 40.0, "separate": 32.0, "check": 25.0}
SETUP_PROBES = 6
TAIL_BEYOND = 10
RUN_TIMEOUT_S = 150.0

# Speed probe times (workload.warm_probe, workload.cold_probe) on the
# reference 2-vCPU VM (Intel Xeon, Python 3.11) in its usual state.  The host
# is shared and its speed drifts by a third and more between runs minutes
# apart, so the op and set-up timings in the metrics are scaled to this pace;
# the report prints them as measured too.
PROBE_REF_S = {"warm": 0.020, "cold": 0.230}
PROBE_WINDOW = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "ref_ops_per_s": "1/s",
    "ref_op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _preflight() -> str | None:
    for path in ("src/polyberg/cli.py", "src/polyberg/gammaseq.py"):
        if not os.path.isfile(path):
            return f"{path} not found: run from the root of a polyberg checkout"
    for name in ("gamma-exact", "gamma-float", "separate"):
        if not os.path.isfile(os.path.join(HERE, "refs", f"{name}.json")):
            return f"reference refs/{name}.json missing: run perfbench/make_refs.py"
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for base, _, files in sorted(os.walk("src")):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(base, f), "rb") as fh:
                    h.update(f.encode() + fh.read())
    return h.hexdigest()[:16]


def _commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(seed: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "seed": seed,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _workload_cmd(args, passes=1, trace=0, setup_only=False, result=None):
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--passes", str(passes), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if result is not None:
        cmd += ["--result", result]
    return cmd


def _spawn(cmd) -> tuple:
    """Start a workload process; return (setup seconds, exit code)."""
    t0 = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env()) as proc:
        first = proc.stdout.readline().split()
        setup = float(first[1]) - t0 if first[:1] == ["ready"] else None
        try:
            proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("workload process timed out") from None
    return setup, proc.returncode


def _run(args, passes=1, trace=0) -> tuple:
    path = os.path.join(TMP_DIR, f"result_{trace}.json")
    setup, rc = _spawn(_workload_cmd(args, passes, trace, result=path))
    if rc != 0 or setup is None:
        raise SystemExit(f"workload process failed with exit code {rc}")
    with open(path, encoding="utf-8") as fh:
        return setup, json.load(fh)


def tail_ms(lats: list) -> tuple:
    """(latency ms, percentile) at the highest percentile with at least
    TAIL_BEYOND ops, and at least 1% of the ops, beyond it; never below
    the median.

    The 1% floor matters only for the separate session (N in the
    thousands): its generator-block fills land in about twenty ops, and
    which of them ranks eleventh depends on the seeded order, so a rank
    inside the fills moves by a factor of two between seeds.  p99 lies
    just above the fills and repeats."""
    xs = sorted(lats)
    n = len(xs)
    beyond = max(TAIL_BEYOND, n // 100)
    if n <= 2 * beyond:
        return 1e3 * statistics.median(xs), 50.0
    return 1e3 * xs[n - beyond - 1], 100.0 * (n - beyond) / n


def host_speed(probes: list, slot: int) -> float:
    """The host's pace around the op in the given probe slot: the median of
    the PROBE_WINDOW probes nearest to it.  Between two single probes the
    pace of a seconds-long op is guessed poorly; a window of probes taken
    over several ops follows the drift of the host and averages the
    probes' own noise."""
    lo = max(0, min(slot - PROBE_WINDOW // 2 + 1, len(probes) - PROBE_WINDOW))
    return statistics.median(probes[lo:lo + PROBE_WINDOW])


def ref_latencies(result: dict) -> list:
    """Each op's latency at reference speed: its measured latency times
    PROBE_REF_S over the host_speed around it."""
    probes, probe_ref = result["probes"], PROBE_REF_S[result["probe_kind"]]
    return [o["lat"] * probe_ref / host_speed(probes, o["slot"]) for o in result["ops"]]


def measure_setups(args) -> list:
    """SETUP_PROBES set-ups as (measured s, s at reference speed).  Each
    is a --setup-only workload process, a cold process like the op
    children, so it is scaled by the cold probe taken right after it."""
    out = []
    for _ in range(SETUP_PROBES):
        setup = _spawn(_workload_cmd(args, setup_only=True))[0]
        out.append((setup, setup * PROBE_REF_S["cold"] / cold_probe()))
    return out


def end_to_end(setups: list, result: dict) -> tuple:
    """End-to-end metrics and report notes."""
    ops, probes = result["ops"], result["probes"]
    probe_ref = PROBE_REF_S[result["probe_kind"]]
    lats = [o["lat"] for o in ops]
    ref = ref_latencies(result)
    metrics = {
        "setup_s": statistics.median(ref for _, ref in setups),
        "ref_ops_per_s": len(ops) / sum(ref),
        "ref_op_p50_ms": 1e3 * statistics.median(ref),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    tail, pct = tail_ms(lats)
    ref_tail, _ = tail_ms(ref)
    notes = [
        f"setup_s: median of {len(setups)} set-ups at reference speed; as measured"
        f" {statistics.median(raw for raw, _ in setups):.6g} s",
        f"host speed: median of {len(probes)} {result['probe_kind']} speed probes"
        f" {1e3 * statistics.median(probes):.3f} ms (reference {1e3 * probe_ref:g} ms)",
        f"as measured: ops_per_s {len(ops) / sum(lats):.6g} 1/s ({len(ops)} ops in"
        f" {sum(lats):.3f} s with an op in flight),"
        f" op_p50_ms {1e3 * statistics.median(lats):.6g} ms, op_tail_ms {tail:.6g} ms",
        f"at reference speed: op_tail_ms {ref_tail:.6g} ms",
        f"op_tail_ms: p{pct:.2f} of {len(ops)} ops"
        + (f" (too few ops for a higher percentile with {TAIL_BEYOND} ops beyond it)"
           if pct == 50.0 else ""),
    ]
    return metrics, notes


def per_layer(result: dict, untraced: dict) -> dict:
    lay = result["layers"]
    out = {}
    for name, (calls, own) in lay["calls_self"].items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (own, "s")
    for mod in ("jacobi", "integration"):
        hits, misses, entries = lay["caches"].get(mod, [0, 0, 0])
        out[f"{mod}.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        out[f"{mod}.cache.entries"] = (entries, "count")
    hits, misses = lay["generator_block"]
    out["generators.generator_block.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["integration.max_abs_err"] = (lay["max_abs_err"], "abs")
    out["cli.import_s"] = (sum(lay["import_s"]), "s")
    out["cli.out_bytes"] = (sum(lay["out_bytes"]), "B")
    # at reference speed, so that the host's drift between the two passes
    # does not swamp the tracing overhead
    traced_wall = sum(ref_latencies(result))
    plain_wall = sum(ref_latencies(untraced))
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (plain_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return out


def _report_ops(ops: list) -> list:
    lines = []
    by_label: dict = {}
    for o in ops:
        by_label.setdefault(o["label"], []).append(o)
    for label, group in sorted(by_label.items()):
        bad = [o for o in group if not o["ok"]]
        med = 1e3 * statistics.median(o["lat"] for o in group)
        line = f"  {label:<24} ops {len(group):6d}  failed {len(bad):5d}  p50 {med:10.3f} ms"
        if bad:
            tag = "documented defect" if all(o["known"] for o in bad) else "NEW FAILURE"
            line += f"  [{tag}] {bad[0]['reasons'][0]}"
        lines.append(line)
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    problem = _preflight()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", HERE],
                   check=True, stdout=subprocess.DEVNULL)
    os.makedirs(TMP_DIR, exist_ok=True)
    try:
        info = machine(args.seed)
        setups = measure_setups(args) if args.trace == 0 else []
        if args.trace == 0:
            passes = max(1, int(args.seconds // PASS_SECONDS[args.workload]))
            _, result = _run(args, passes)
            metrics, notes = end_to_end(setups, result)
            units = END_TO_END_UNITS
            ops = result["ops"]
        else:
            _, untraced = _run(args)
            _, result = _run(args, trace=1)
            layered = per_layer(result, untraced)
            metrics = {k: v for k, (v, _) in layered.items()}
            units = {k: u for k, (_, u) in layered.items()}
            notes = [f"per-layer figures are totals over {len(result['ops'])} traced ops",
                     f"tracing overhead: {metrics['trace.overhead_s']:.3f} s on "
                     f"{metrics['trace.untraced_wall_s']:.3f} s untraced (op times"
                     " at reference speed)"]
            ops = untraced["ops"] + result["ops"]
    finally:
        shutil.rmtree(TMP_DIR, ignore_errors=True)

    failed = sum(not o["ok"] for o in ops)
    new = sum(not o["ok"] and not o["known"] for o in ops)
    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(info))
    if args.workload == "gamma":
        print("checked blocks per request: xi in "
              f"{pool.sample_xis(4, 60)} (n=4) and {pool.sample_xis(8, 120)} (n=8)")
        if args.trace == 0:
            blocks = sum(o["blocks"] for o in ops)
            print(f"blocks_per_s {blocks / sum(o['lat'] for o in ops):.6g} 1/s "
                  "as measured (20 requests n=4, xi_max=60 and 5 requests n=8,"
                  " xi_max=120 per pass)")
    print(f"fail_frac {failed / len(ops):.6g} ratio ({failed} of {len(ops)} ops failed; "
          f"{new} outside the documented defects)")
    for line in notes + _report_ops(ops):
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": new == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
