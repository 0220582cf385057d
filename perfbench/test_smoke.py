"""Smoke test of the benchmark itself, at a tiny problem size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.import_smle()
import workloads  # noqa: E402  (needs smle on the path)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(capsys, argv):
    code = run.main(argv, tiny=True)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    code, info, result = _result(capsys, argv)
    assert code == 0, info["errors"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert info["meta"]["blas_threads"] >= 1
    assert info["report"]["rounds"] >= workloads.WORKLOADS[workload].min_rounds


def test_nan_mixture_fails_the_denoise_check(tmp_path):
    wl = workloads.Denoise(seed=5, sizes=workloads.TINY)
    wl.setup(tmp_path)
    wl.inputs[0] = wl.inputs[0].copy()
    wl.inputs[0][len(wl.inputs[0]) // 2] = np.nan
    rounds = [wl.run_round(), wl.run_round()]
    paper = [op for op in rounds[0] if op.kind == "paper"][0]
    assert paper.failed == 1
    assert workloads.check_rounds(rounds)


def test_failing_finetune_still_yields_metrics(tmp_path, monkeypatch):
    wl = workloads.Finetune(seed=5, sizes=workloads.TINY)
    wl.setup(tmp_path)

    def diverge(*args, **kwargs):
        raise FloatingPointError("loss diverged")

    monkeypatch.setattr(workloads.pipeline, "finetune_ensemble", diverge)
    rounds = [wl.run_round(), wl.run_round()]
    assert [op.kind for r in rounds for op in r] == ["finetune", "finetune"]
    assert all(op.failed == op.count for r in rounds for op in r)
    metrics, _ = wl.metrics(rounds)
    assert np.isnan(metrics["control_per_s"]) and np.isnan(metrics["quality_db"])


def test_digest_mismatch_fails_the_run():
    rounds = [[workloads.Op("spec", 1.0, 2, digest="a")],
              [workloads.Op("spec", 1.0, 2, digest="b")]]
    assert workloads.check_rounds(rounds) == ["round 2: spec #1 outputs differ from round 1"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
