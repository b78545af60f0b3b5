"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calibrate  # noqa: E402
import checker  # noqa: E402
import compare  # noqa: E402
import planted  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture(scope="module")
def validator():
    return checker.load_validator(ROOT)


def _analyze(model: planted.Planted, files: dict[str, str], tmp: Path) -> tuple[int, str]:
    import imclim.cli as cli

    source = model.source
    if not source.startswith("builtin:"):
        (tmp / source).write_text(files[source])
        source = str(tmp / source)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["analyze", source, "--json", *model.flags])
    return code, out.getvalue()


def test_same_seed_gives_byte_identical_models():
    for workload in run.WORKLOADS:
        _, _, first = planted.generate(workload, 7, quick=True)
        _, _, again = planted.generate(workload, 7, quick=True)
        _, _, other = planted.generate(workload, 8, quick=True)
        assert first == again
        assert first != other


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_planted_answers_match_the_analyzer(workload, validator, tmp_path):
    models, warmup, files = planted.generate(workload, 3, quick=True)
    for model in [warmup, *models]:
        code, stdout = _analyze(model, files, tmp_path)
        assert checker.check(model, code, stdout, validator) == []


def test_checker_flags_mutated_reports(validator, tmp_path):
    models, _, files = planted.generate("structure", 1, quick=True)
    periodic = next(m for m in models if planted.answer(m).convergent == "no")
    code, stdout = _analyze(periodic, files, tmp_path)
    assert checker.check(periodic, code, stdout, validator) == []

    wrong_verdict = json.loads(stdout)
    wrong_verdict["verdicts"]["convergent"] = "yes"
    wrong_cyclicity = json.loads(stdout)
    wrong_cyclicity["decomposition"]["levels"][-1]["maximal_classes"][0]["cyclicity"] = 1
    off_schema = json.loads(stdout)
    off_schema["verdicts"]["convergent"] = "maybe"
    for report in (wrong_verdict, wrong_cyclicity, off_schema):
        assert checker.check(periodic, code, json.dumps(report), validator)
    assert checker.check(periodic, 0, stdout, validator)  # wrong exit code
    assert checker.check(periodic, code, "not json", validator)


def test_tail_is_the_workload_percentile_with_ten_samples_beyond_it():
    values = [float(v) for v in range(100)]
    assert run.tail(values, 75.0) == (75.0, 74.0)
    pct, value = run.tail(values, 99.0)  # only one sample beyond p99: lowered
    assert value == 89.0 and pct == 90.0
    assert sum(v > value for v in values) == 10
    assert run.tail([3.0, 4.0], 75.0) == (0.0, 3.0)
    assert set(run.TAIL_PERCENTILE) == set(run.WORKLOADS)


def test_speed_factor_uses_kernels_near_the_call():
    log = calibrate.SpeedLog()
    log.times = [0.0, 5.0, 5.02, 5.04, 5.06, 5.5, 20.0]
    log.kernels = [0.010, 0.001, 0.0005, 0.002, 0.001, 0.004, 0.020]
    # The four kernels within the window around the call: mean of 1, 2, 0.5 and 1.
    assert log.factor(5.01, 5.05) == pytest.approx(1.125)
    # Too few near a call: widened to the nearest kernels on each side.
    assert log.factor(12.0, 12.01) == pytest.approx((0.25 + 0.05 + 1.0 + 0.5) / 4)
    assert 0 < calibrate.kernel_seconds() < 1


def test_speed_log_samples_during_a_call_and_tracks_its_own_time():
    log = calibrate.SpeedLog()
    log.start()
    try:
        end = time.monotonic() + 0.2
        while time.monotonic() < end:
            sum(range(1000))
    finally:
        log.stop()
    assert len(log.kernels) >= 5
    assert 0 < log.spent_ns < 0.2e9


@pytest.mark.parametrize("fields, reason", [
    ({"detected_period": None, "iterations": 5000, "residual": 1e-3}, "budget"),
    ({"detected_period": 2, "iterations": 5000, "residual": 1e-10}, "budget"),
    ({"detected_period": 1, "iterations": 320, "residual": 1e-10}, "sustained"),
    ({"detected_period": 1, "iterations": 40, "residual": 0.0}, "exact"),
    ({"detected_period": 2, "iterations": 90, "residual": 0.0}, "exact"),
])
def test_stop_reason(fields, reason):
    result = SimpleNamespace(params=SimpleNamespace(max_iters=5000), **fields)
    assert tracer.stop_reason(result) == reason


def test_tracer_restores_the_package(tmp_path):
    import imclim.cli as cli
    import imclim.operators as operators
    import imclim.report as report

    before = (cli.load_model, report.decompose, operators.CredalOperator.apply)
    models, _, files = planted.generate("orbit", 2, quick=True)
    model = models[-1]
    (tmp_path / model.source).write_text(files[model.source])
    traced = tracer.Tracer()
    traced.install()
    try:
        assert cli.load_model is not before[0]
        code = traced.run(model.name, _analyze, model, files, tmp_path)[0]
    finally:
        traced.uninstall()
    assert (cli.load_model, report.decompose, operators.CredalOperator.apply) == before
    assert code == planted.answer(model).exit_code
    metrics = traced.metrics()
    assert set(metrics) | {"trace.overhead_ratio"} == set(run.LAYER_UNITS)
    assert metrics["orbits.iterations"] > 0 and metrics["operators.float_applies"] > 0
    assert metrics["graphs.build_graph_calls"] == len(model.levels) + 1
    assert abs(sum(metrics[f"share.{layer}"] for layer in tracer.LAYERS) - 1) < 1e-6


def test_quick_mode_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--quick"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == set(run.WORKLOADS)
    for result in results.values():
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        assert set(result["metrics"]) == set(run.E2E_UNITS)


def test_compare_reports_spread_and_regression(tmp_path, capsys):
    def write(directory: Path, p50s: list[float]) -> None:
        directory.mkdir()
        for seed, p50 in enumerate(p50s):
            metrics = {name: {"value": 1.0, "unit": unit} for name, unit in run.E2E_UNITS.items()}
            metrics["verdict_s_p50"]["value"] = p50
            result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
            (directory / f"screen-s{seed}.json").write_text(json.dumps(result))

    write(tmp_path / "a", [1.0, 1.01, 0.99, 1.0])
    write(tmp_path / "b", [1.0, 1.01, 0.99, 1.0])
    write(tmp_path / "slow", [1.5, 1.51, 1.49, 1.5])
    assert compare.report(tmp_path / "a", tmp_path / "b") == 0
    assert compare.report(tmp_path / "a", tmp_path / "slow") == 1
    assert "REGRESSION" in capsys.readouterr().out
