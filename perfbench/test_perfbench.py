"""Tests of the benchmark itself, on the toy sizes of --smoke.

    python3 -m pytest perfbench -q

Each smoke run takes about a second; the suite needs no network and
writes only under pytest's temporary directory and perfbench/out.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import measure
from tracing import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def _run(workload: str, trace: int, cwd: str = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    command = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "1"]
    command += ["--trace", str(trace), "--smoke"]
    command[0] = sys.executable
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    stamp = json.loads(next(line for line in proc.stdout.splitlines() if line.startswith("stamp "))[6:])
    assert stamp["seed"] == 3 and stamp["nproc"] >= 1 and stamp["python"] and stamp["jobs"]
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name


def test_queries_inputs_follow_the_seed():
    nc = measure._import_ncskew()
    first = measure._query_inputs(nc, 5, smoke=True)
    assert first == measure._query_inputs(nc, 5, smoke=True)
    assert first != measure._query_inputs(nc, 6, smoke=True)
    assert {kind for kind, _, _ in first} == set(measure.QUERY_KINDS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("queries", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["textio.parse", 1.0, 3.0, 0, 0, None],
        ["textio.parse", 1.5, 2.5, 1, 0, None],
        ["ncsym.expand", 4.0, 8.0, 0, 0, "rho"],
    ]
    out = summarize(spans)
    assert out["cli.self_s"] == 4.0
    assert out["textio.self_s"] == 2.0
    assert out["textio.parse.s"] == 2.0 and out["textio.parse.calls"] == 1
    assert out["ncsym.expand.tag.rho.s"] == 4.0
