"""The benchmark's own test: tiny runs of every workload.

Each tiny run must print every metric ``BENCHMARK.json`` declares, once,
with its unit, pass its known-answer checks, and exit 0.  A wrong known
answer must fail the run, and the command must refuse to run without
the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(script: Path, *args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--size", "tiny", "--seconds", "1",
         *args], cwd=str(cwd), capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(proc, declared: list[dict]) -> None:
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    for metric in declared:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(metrics[metric["name"]]["value"], (int, float))
    # The human-readable lines name every metric once, too.
    lines = proc.stdout.splitlines()[:-1]
    for metric in declared:
        named = [line for line in lines
                 if line.split() and line.split()[0] == metric["name"]]
        assert len(named) == 1, metric["name"]


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] \
        == list(run.END_TO_END)
    units = run.layer_units()
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == units


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    proc = _run(HERE / "run.py", "--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _assert_metrics(proc, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload):
    proc = _run(HERE / "run.py", "--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _assert_metrics(proc, SPEC["per_layer"])


def _copy_benchmark(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_sources:
        (tmp_path / "src").symlink_to(ROOT / "src")
    return tmp_path / "perfbench" / "run.py"


def test_wrong_expected_answer_fails_the_run(tmp_path):
    script = _copy_benchmark(tmp_path, with_sources=True)
    outcomes_path = script.parent / "expected" / "fig8_outcomes.json"
    outcomes = json.loads(outcomes_path.read_text())
    key = "gpt-3.5|llm_only|" + str(min(wl.FIG8_SEED_POOL))
    flipped = {"0": "a", "p": "0", "a": "0"}
    outcomes = {name: ("".join(flipped[c] for c in text)
                       if name.startswith("gpt-3.5|llm_only|") else text)
                for name, text in outcomes.items()}
    assert key in outcomes
    outcomes_path.write_text(json.dumps(outcomes))
    proc = _run(script, "--workload", "fig8-serial", cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result = _result(proc)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "CHECK FAILED" in proc.stdout


def test_wrong_detector_label_fails_the_check():
    text = wl.stress_program(3, "parens")
    result = wl.round_detect([{"text": text, "kind": "buggy",
                               "label": "alloc"}])
    assert result["failed"] == 1
    assert result["known_defects"] == 0
    assert result["check_failures"]


def test_only_deep_stress_failures_are_known_defects():
    deep = f"parens:{wl.STRESS_KNOWN_DEPTH}"
    shallow = f"parens:{wl.STRESS_KNOWN_DEPTH - 1}"
    check = ("raised", "RecursionError")
    detect = ("ok", False, "compile", "lex error: maximum recursion depth")
    assert wl._known_defect(deep, check, detect)
    assert not wl._known_defect(shallow, check, detect)
    # Any other failure of a deep program is not the known defect.
    assert not wl._known_defect(deep, ("raised", "ValueError"), detect)
    assert not wl._known_defect(deep, check,
                                ("ok", False, "alloc", "out of bounds"))


def test_round_count_depends_on_arguments_only():
    assert wl.planned_rounds("detect-cold", 15, "full") == 3
    assert wl.planned_rounds("fig8-serial", 15, "full") == 1
    assert wl.planned_rounds("serve-open", 15, "full") == 1
    assert wl.planned_rounds("detect-cold", 1000, "full") == wl.MAX_ROUNDS
    assert wl.planned_rounds("detect-cold", 15, "tiny") == 1


def test_reference_seconds_cancel_host_speed():
    # The host runs the kernel at the reference speed for a second, then
    # at half that speed for two: both stretches are one reference second.
    samples = [(t / 10, calib.REF_KERNEL_S) for t in range(10)]
    samples += [(1 + t / 10, 2 * calib.REF_KERNEL_S) for t in range(20)]
    speed = calib.Speed(samples)
    assert abs(speed.ref_seconds(0.3, 0.7) - 0.4) < 1e-9
    assert abs(speed.ref_seconds(1.5, 2.5) - 0.5) < 1e-9


def test_refuses_to_run_without_the_program(tmp_path):
    script = _copy_benchmark(tmp_path, with_sources=False)
    proc = _run(script, "--workload", "detect-cold", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
