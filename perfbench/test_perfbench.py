"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

They start real polyberg processes and three benchmark runs of one or
two passes each, so they take about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import check  # noqa: E402
import pool  # noqa: E402
import spans  # noqa: E402
from workload import child_env  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _bench(workload: str, trace: int, seconds: float = 1.0) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload,trace", [("check", 0), ("check", 1), ("separate", 1)])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    report, result = _bench(workload, trace)
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert f"{m['name']} {value:.6g} {m['unit']}" in report
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert any(line.startswith("fail_frac ") for line in report)


def test_a_run_does_the_same_ops_whatever_the_seed():
    for schedule in (pool.gamma_schedule, pool.check_schedule):
        a, b = schedule(1), schedule(2)
        assert a != b
        assert sorted(map(pool.item_key, a)) == sorted(map(pool.item_key, b))


def _first(workload: str, stratum: str) -> dict:
    return dict(pool.gamma_strata(workload))[stratum][0]


def _refs(workload: str) -> dict:
    with open(os.path.join(HERE, "refs", f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _gamma(item: dict, out: str, spans_path: str | None = None) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "child.py")]
    if spans_path:
        cmd += ["--spans", spans_path]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + pool.cli_argv(item, out), env=child_env(),
                          capture_output=True, text=True, timeout=120)
    return proc, t0, time.monotonic() - t0


def test_corrupted_block_counts_as_failed_op(tmp_path):
    item = _first("gamma-exact", "const/n4")
    ref = _refs("gamma-exact")[pool.item_key(item)]
    out = tmp_path / "seq.json"
    proc, _, _ = _gamma(item, str(out))
    text = out.read_text()
    assert check.gamma_op(item, ref, proc.returncode, proc.stdout, text).ok

    seq = json.loads(text)
    xi = pool.sample_xis(item["n"], item["xi_max"])[-1]
    seq["matrices"][xi + item["n"] - 1]["rows"][0][1] += 1e-6
    copy = tmp_path / "seq_copy.json"
    copy.write_text(json.dumps(seq))
    verdict = check.gamma_op(item, ref, proc.returncode, proc.stdout, copy.read_text())
    assert not verdict.ok and not verdict.known
    assert any(f"at xi={xi}" in r for r in verdict.reasons)


def test_traced_self_times_add_up_to_wall_time(tmp_path):
    item = _first("gamma-exact", "const/n8")
    spans_path = str(tmp_path / "spans.npz")
    proc, t0, wall = _gamma(item, str(tmp_path / "seq.json"), spans_path)
    assert proc.returncode == 0, proc.stderr
    data = spans.load(spans_path)
    covered = data["meta"]["imported"] - t0
    covered += sum(own for _, own in spans.self_times(data).values())
    assert abs(covered - wall) <= 0.05 * wall, (covered, wall)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gamma", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
