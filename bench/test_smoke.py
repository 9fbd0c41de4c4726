"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def lw():
    return run.import_latwist()


def test_spec_names_every_workload():
    assert sorted(w["name"] for w in SPEC["workloads"]) == NAMES


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted_with_its_unit(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_OPS", 5)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(workloads.WORKLOADS[name], "trace_ops", 4)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_inputs(name, lw):
    def inputs(seed):
        wl = workloads.WORKLOADS[name]()
        wl.warm_up(lw)
        return [wl.make_input(seed, i) for i in range(40)]

    first = inputs(1)
    assert inputs(1) == first
    assert inputs(2) != first


@pytest.mark.parametrize("name", NAMES)
def test_wrong_expected_answer_is_counted(name, lw):
    wl = workloads.WORKLOADS[name]()
    wl.warm_up(lw)
    assert run.negative_control(wl, lw, 1)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "classify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
