"""The workload process: one closed-loop client with one op in flight.

    python3 perfbench/workload.py --workload W --seed S --passes P
        --trace 0|1 [--setup-only] --result FILE

run.py starts it.  It sets up (imports, inputs from the seed, references),
prints "ready <monotonic time>" and then runs P passes over the
workload's schedule: a fixed list of ops in a seeded order (see
pool.gamma_schedule, pool.check_schedule, pool.separate_pairs), so every
run does the same work.  For gamma and check each op is a fresh
interpreter running child.py; the separate workload calls
polyberg.separate in this process.  With --trace 1 every op is traced
(child.py --spans for per-process ops, spans.install here for separate)
and the per-layer figures go into the result file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import pool  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402

OP_TIMEOUT_S = 60.0
TMP_DIR = ".perfbench_tmp"
PROBE_EVERY = 250   # separate ops per speed probe


def child_env() -> dict:
    """Single-threaded BLAS, no polyberg worker cap, fixed hash seed.
    (child.py and this process put src/ first on sys.path.)"""
    env = {k: v for k, v in os.environ.items() if k != "POLYBERG_THREADS"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def warm_probe() -> float:
    """Seconds taken by probe.kernel in this process (about 20 ms on a
    2-vCPU VM)."""
    t0 = time.perf_counter()
    probe.kernel()
    return time.perf_counter() - t0


def cold_probe() -> float:
    """Wall seconds of probe.py in a fresh interpreter (about 230 ms on a
    2-vCPU VM).

    Speed probes run between ops and sample how fast the shared host runs
    that kind of work at that moment: cold probes for the per-process ops,
    warm probes for the separate session.  Over 250 gamma ops on the
    reference VM an op's time moved with the cold probe one to one (slope
    0.96 in log-log), but only two thirds as much as the warm probe's.
    The probes of a run form one list; each op records its slot j, the
    index of the probe just before it (see run.py)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "probe.py")], check=True,
                   timeout=OP_TIMEOUT_S)
    return time.perf_counter() - t0


class Layers:
    """Per-layer sums over the traced ops of one run."""

    def __init__(self) -> None:
        self.calls_self: dict = {}
        self.caches: dict = {}          # module -> [hits, misses, max entries]
        self.gen_block: list = [0, 0]   # generator_block hits, misses
        self.import_s: list = []
        self.out_bytes: list = []
        self.max_abs_err = 0.0

    def add_spans(self, data: dict) -> None:
        for name, (calls, own) in spans.self_times(data).items():
            acc = self.calls_self.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += own
        for mod, objs in data["meta"]["caches"].items():
            acc = self.caches.setdefault(mod, [0, 0, 0])
            acc[0] += sum(o[1] for o in objs)
            acc[1] += sum(o[2] for o in objs)
            acc[2] = max(acc[2], sum(o[3] for o in objs))
            for name, hits, misses, _ in objs:
                if name == "generator_block":
                    self.gen_block[0] += hits
                    self.gen_block[1] += misses

    def as_dict(self) -> dict:
        return {
            "calls_self": self.calls_self,
            "caches": self.caches,
            "generator_block": self.gen_block,
            "import_s": self.import_s,
            "out_bytes": self.out_bytes,
            "max_abs_err": self.max_abs_err,
        }


def _load_refs(workload: str) -> dict:
    names = {"gamma": ("gamma-exact", "gamma-float"), "separate": ("separate",)}
    refs: dict = {}
    for name in names.get(workload, ()):
        with open(os.path.join(HERE, "refs", f"{name}.json"), encoding="utf-8") as fh:
            refs.update(json.load(fh))
    return refs


def run_process_ops(args, schedule, refs, layers, ops, probes) -> None:
    """Closed loop of per-process ops over the schedule, --passes times."""
    os.makedirs(TMP_DIR, exist_ok=True)
    out_path = os.path.join(TMP_DIR, "op_out.json")
    spans_path = os.path.join(TMP_DIR, "op_spans.npz")
    env = child_env()
    probes.append(cold_probe())
    for item in schedule * args.passes:
        for path in (out_path, spans_path):
            if os.path.exists(path):
                os.remove(path)
        cmd = [sys.executable, os.path.join(HERE, "child.py")]
        if args.trace:
            cmd += ["--spans", spans_path]
        cmd += pool.cli_argv(item, out_path)
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=OP_TIMEOUT_S)
            rc, stdout = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            rc, stdout = None, ""
        lat = time.monotonic() - t0
        if item["op"] == "gamma":
            text = None
            if os.path.exists(out_path):
                with open(out_path, encoding="utf-8") as fh:
                    text = fh.read()
            verdict = check.gamma_op(item, refs[pool.item_key(item)], rc, stdout, text)
        else:
            verdict = check.check_op(item, rc, stdout)
        if args.trace and os.path.exists(spans_path):
            data = spans.load(spans_path)
            layers.add_spans(data)
            layers.import_s.append(data["meta"]["imported"] - t0)
            layers.out_bytes.append(verdict.out_bytes)
            layers.max_abs_err = max(layers.max_abs_err, verdict.max_abs_err)
        ops.append(_op_record(pool.item_label(item), lat, verdict, len(probes) - 1))
        probes.append(cold_probe())


def _op_record(label: str, lat: float, verdict, slot: int) -> dict:
    return {"label": label, "lat": lat, "slot": slot, "ok": verdict.ok,
            "known": verdict.known, "reasons": verdict.reasons, "blocks": verdict.blocks}


def run_separate(args, pairs, refs, layers, ops, probes, recorder, polyberg) -> None:
    from polyberg.purestates import NotSeparableError, finite_state, limit_state

    def state(s):
        return limit_state() if s[0] is None else finite_state(s[0], s[1])

    clock = time.monotonic
    schedule = pairs * args.passes
    probes.append(warm_probe())
    for start in range(0, len(schedule), PROBE_EVERY):
        block = []
        for n, alpha, s1, s2 in schedule[start:start + PROBE_EVERY]:
            a, b = state(s1), state(s2)
            t0 = clock()
            try:
                witness, vals = polyberg.separate(a, b, n, alpha)
                outcome = ("ok", witness, vals)
            except NotSeparableError as exc:
                outcome = ("refused", str(exc))
            except Exception as exc:  # an op that raises is a failed op
                outcome = ("raised", repr(exc))
            lat = clock() - t0
            verdict = check.separate_op(n, alpha, s1, s2, outcome, refs[f"{n}/{alpha!r}"])
            layers.max_abs_err = max(layers.max_abs_err, verdict.max_abs_err)
            block.append((lat, verdict))
        ops.extend(_op_record("separate", lat, verdict, len(probes) - 1)
                   for lat, verdict in block)
        probes.append(warm_probe())
    if recorder is not None:
        layers.add_spans(spans.snapshot(recorder))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", default=None)
    args = ap.parse_args()

    # one vCPU for this process and its children, so the speed probes
    # sample the CPU the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    refs = _load_refs(args.workload)
    recorder = None
    if args.workload == "separate":
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import polyberg

        pairs = pool.separate_pairs(args.seed)
        if args.trace:
            recorder = spans.Recorder()
            spans.install(recorder)
    elif args.workload == "check":
        schedule = pool.check_schedule(args.seed)
    else:
        schedule = pool.gamma_schedule(args.seed)
    ready = time.monotonic()
    print(f"ready {ready!r}", flush=True)
    if args.setup_only:
        return 0

    layers, ops, probes = Layers(), [], []
    if args.workload == "separate":
        run_separate(args, pairs, refs, layers, ops, probes, recorder, polyberg)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        probe_kind = "warm"
    else:
        run_process_ops(args, schedule, refs, layers, ops, probes)
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        probe_kind = "cold"
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "probes": probes, "probe_kind": probe_kind,
                   "peak_rss_kb": rss_kb, "layers": layers.as_dict()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
