"""The benchmark's tracer (``perfbench/tracer.py``) finds every function it wraps.

The tracer looks each name of its ``FUNCTIONS`` table up in that name's home
module, ``imclim.<layer>``, so renaming or deleting one of them breaks every
traced benchmark run.  It counts ``apply`` calls only where a class defines
``apply`` itself.  The file is loaded by path and used as it stands.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import gen
import imclim.cli
from imclim import UpperOperator
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


def package_subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("imclim."):
            yield sub
            yield from package_subclasses(sub)


def test_every_operator_defines_its_own_apply():
    # the tracer counts ``apply`` in ``vars(cls)`` of each direct subclass of
    # UpperOperator: an ``apply`` inherited from a base, or a deeper subclass,
    # would leave ``operators.float_applies`` at 0
    concrete = [cls for cls in package_subclasses(UpperOperator) if not inspect.isabstract(cls)]
    assert {cls.__name__ for cls in concrete} >= {"CredalOperator", "CounterexampleOperator"}
    for cls in concrete:
        assert "apply" in vars(cls), cls
        assert UpperOperator in cls.__bases__, cls


def test_traced_analyses_time_the_witness(tmp_path, capsys):
    no_model, yes_model = tmp_path / "swap.json", tmp_path / "running.json"
    gen.dump_model(make_delayed_cycle_operator(), no_model)
    gen.dump_model(make_running_operator(), yes_model)
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
    # spends its budget (the burn-in past it keeps its limit uncertified)
    demo = str(Path(__file__).resolve().parent.parent / "demos" / "running-example.json")
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        codes = [
            tracer.run("running", imclim.cli.main, ["orbit", demo, "-f", "b"]),
            tracer.run("counterexample", imclim.cli.main,
                       ["orbit", "builtin:counterexample-5.1", "-f", "b", "--max-iters", "300",
                        "--burn-in", "400"]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0]
    metrics = tracer.metrics()
    assert metrics["orbits.iterations"] > 0
    assert metrics["orbits.stop_exact"] == 0.5
    assert metrics["orbits.stop_budget"] == 0.5


def test_traced_structure_counts_match_the_analysis(tmp_path, capsys):
    # the tracer reads ``AccessGraph.adjacency`` of the model's graph and
    # ``StatePartition.reach_sequence`` of every level's ``partition_states``,
    # whose rounds the decomposition keeps for the states that leave there
    for op in (make_running_operator(), gen.chain_operator(7), gen.staircase_operator(4)):
        path = tmp_path / "model.json"
        gen.dump_model(op, path)
        tracer = load_tracer().Tracer()
        try:
            tracer.install()
            tracer.run("model", imclim.cli.main, ["analyze", str(path), "--json"])
        finally:
            tracer.uninstall()
        capsys.readouterr()
        dec = imclim.decompose(op)
        rounds = [
            max(r for e, r in zip(dec.exits, dec.rounds) if e == k) + 1
            for k in range(1, dec.depth + 1)
        ]
        metrics = tracer.metrics()
        assert metrics["decomposition.levels"] == dec.depth
        assert metrics["graphs.edges"] == len(dec.graph.edges())
        assert metrics["reachability.reach_rounds"] == sum(rounds)
