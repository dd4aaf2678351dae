"""Tests of the benchmark itself, on its seconds-long smoke inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
from spinfid import oracle  # noqa: E402
from spinfid.core import SpinParams  # noqa: E402
from spinfid.lattice import CouplingTable  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", "--size", "smoke", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_line(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace):
    result = result_line(bench("--workload", workload, "--seed", "3", "--trace", str(trace)))
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 11
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


def test_failing_job_counts_in_fail_ratio():
    proc = bench("--workload", "closed_form", "--seed", "3", "--trace", "0", "--inject-failure")
    result = result_line(proc)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]
    assert "guard-violation: JobFailed: spinfid run exited with code 3" in proc.stdout


def test_work_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        result = result_line(bench("--workload", "oracle_dipolar", "--seed", "5", "--trace", "1"))
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["kernels.cos_sum.evals"] > 0 and counts[0]["jobs"] >= 11


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "closed_form", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_leaves_ten_jobs_beyond():
    assert worker.tail([range(11)]) == (0, 100.0 / 11)
    value, pct = worker.tail([range(44), range(44)])
    assert value == 33 and pct == pytest.approx(100.0 * 34 / 44)
    with pytest.raises(ValueError):
        worker.tail([range(10)])


def test_tracer_restores_plain_functions_and_nests_spans():
    plain_build = oracle.EvolvedCluster.__dict__["build"]
    plain_hamiltonian = oracle.build_hamiltonian
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert oracle.build_hamiltonian is not plain_hamiltonian
        with tracer.span(tracing.JOB_SPAN):
            oracle.EvolvedCluster.build(SpinParams(1), CouplingTable(b=[[0.0, 1.0], [1.0, 0.0]]),
                                        "ising")
    finally:
        tracer.uninstall()
    assert oracle.build_hamiltonian is plain_hamiltonian
    assert oracle.EvolvedCluster.__dict__["build"] is plain_build
    assert tracer.absent == []
    layers = tracer.layer_totals(0, len(tracer.spans))
    assert layers["calls"]["oracle.cluster_build"] == 1
    assert tracer.counts["oracle.hilbert_dim.sum"] == 4
    build = layers["s"]["oracle.cluster_build"]
    children = layers["s"]["oracle.build_hamiltonian"] + layers["s"]["oracle.total_sx"]
    assert layers["self_s"]["oracle.cluster_build"] == pytest.approx(build - children)
    assert layers["self_s"]["job"] == pytest.approx(layers["s"]["job"] - build)
