"""The benchmark's tracer (``perfbench/tracer.py``) finds every function it wraps.

The tracer looks each name of its ``FUNCTIONS`` table up in that name's home
module, ``imclim.<layer>``, so renaming or deleting one of them breaks every
traced benchmark run.  The file is loaded by path and used as it stands.
"""

import importlib
import importlib.util
from pathlib import Path

import gen
import imclim.cli
from conftest import make_delayed_cycle_operator, make_running_operator

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_its_layer():
    tracer = load_tracer()
    for name, layer in tracer.FUNCTIONS.items():
        assert callable(vars(importlib.import_module(f"imclim.{layer}")).get(name)), (
            f"imclim.{layer}.{name}"
        )


def test_traced_analyses_time_the_witness(tmp_path, capsys):
    no_model, yes_model = tmp_path / "swap.json", tmp_path / "running.json"
    gen.dump_model(make_delayed_cycle_operator().family, no_model)
    gen.dump_model(make_running_operator().family, yes_model)
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        codes = [
            tracer.run("swap", imclim.cli.main, ["analyze", str(no_model), "--json"]),
            tracer.run("running", imclim.cli.main,
                       ["analyze", str(yes_model), "--json", "--suite", "2"]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [2, 0]
    metrics = tracer.metrics()
    assert metrics["orbits.witness_s"] > 0
    assert metrics["orbits.suite_s"] > 0


def test_traced_orbits_record_their_stop_reasons(capsys):
    # the tracer reads the result's params.max_iters, residual, iterations and
    # detected_period: the running example repeats exactly, the counterexample
    # spends its budget
    demo = str(Path(__file__).resolve().parent.parent / "demos" / "running-example.json")
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        codes = [
            tracer.run("running", imclim.cli.main, ["orbit", demo, "-f", "b"]),
            tracer.run("counterexample", imclim.cli.main,
                       ["orbit", "builtin:counterexample-5.1", "-f", "b", "--max-iters", "300"]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0]
    metrics = tracer.metrics()
    assert metrics["orbits.iterations"] > 0
    assert metrics["orbits.stop_exact"] == 0.5
    assert metrics["orbits.stop_budget"] == 0.5
