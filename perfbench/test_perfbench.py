"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The smoke test runs every workload on a shortened job list, traced and
untraced, and takes about a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import seq_matmul_flops, seq_solve_flops  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_smoke_mode_passes():
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().splitlines()[-1] == "smoke: ok"


def test_benchmark_json_follows_its_schema():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert 1 <= spec["run_seconds"] <= 60
    names = set()
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
        assert NAME.match(workload["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert metric["name"] not in names
        names.add(metric["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_tail_keeps_ten_jobs_beyond_it():
    values = [float(i) for i in range(1, 41)]
    assert run.tail(values) == (75.0, 30.0)
    assert run.tail(values[:20]) == (50.0, 10.0)
    # too few jobs for a percentile at or above the median: the slowest job
    assert run.tail(values[:16]) == (100.0, 16.0)
    assert run.tail(values[:5]) == (100.0, 5.0)


def test_flop_models_count_complex_operations():
    a, b = np.zeros((3, 4)), np.zeros((4, 5))
    assert seq_matmul_flops(a, b) == 8 * 3 * 4 * 5
    # a 1x1 solve with one right-hand side is a single division
    assert seq_solve_flops(np.ones((1, 1)), np.ones(1)) == 8
    # 2x2: one multiplier, one update, one rhs update, two divisions, one back-substitution
    assert seq_solve_flops(np.ones((2, 2)), np.ones((2, 1))) == 8 * (1 + 1 + 1 + 2 + 1)
