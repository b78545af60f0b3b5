import json
import os
import random
import subprocess
import sys
import time
import warnings
from pathlib import Path

import gen
import jsonschema
import pytest

from imclim.cli import main

REPO = Path(__file__).resolve().parent.parent
DEMO_MODEL = str(REPO / "demos" / "running-example.json")
SCHEMA_PATH = REPO / "docs" / "report.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())
# ``decompose --json`` prints the report's decomposition block on its own
DECOMPOSITION_SCHEMA = {"$defs": SCHEMA["$defs"], **SCHEMA["properties"]["decomposition"]}
# The end of a child script: print ``code`` and the child's own peak resident
# memory in KiB.  ``VmHWM`` belongs to the child's address space, which starts
# afresh at exec; on Linux, ``ru_maxrss`` carries over the peak of the process
# that started the child.
PRINT_PEAK = (
    "with open('/proc/self/status') as status:\n"
    "    peak = next(line.split()[1] for line in status if line.startswith('VmHWM:'))\n"
    "print(code, peak)\n"
)


def emitted_report(capsys) -> dict:
    """The JSON report just printed, validated against docs/report.schema.json."""
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, SCHEMA)
    return report

NONCONVERGENT_MODEL = {
    "states": ["a", "b", "c"],
    "credal_sets": {
        "a": [{"a": "1"}],
        "b": [{"a": "1"}, {"c": "1"}],
        "c": [{"b": "1"}],
    },
}


@pytest.fixture
def nonconvergent_path(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(NONCONVERGENT_MODEL))
    return str(path)


def test_parser_is_built_once():
    from imclim.cli import build_parser

    assert build_parser() is build_parser()


def test_engine_settings_are_the_orbit_flags():
    # every field of OrbitParams is a flag both orbit-running commands parse,
    # and the CLI passes each one on: the engine has no setting the user cannot see
    import argparse
    import dataclasses

    from imclim import OrbitParams
    from imclim.cli import _add_orbit_flags, _orbit_params, build_parser

    probe = argparse.ArgumentParser()
    _add_orbit_flags(probe)
    flags = set(vars(probe.parse_args([])))
    assert {field.name for field in dataclasses.fields(OrbitParams)} == flags
    assert flags == {"tolerance", "burn_in", "max_iters", "max_period"}
    values = ["--tolerance", "0.5", "--burn-in", "7", "--max-iters", "33", "--max-period", "5"]
    for command in (["analyze", DEMO_MODEL], ["orbit", DEMO_MODEL, "-f", "b"]):
        args = build_parser().parse_args([*command, *values])
        params = _orbit_params(args)
        assert {name: getattr(params, name) for name in flags} == \
            {"tolerance": 0.5, "burn_in": 7, "max_iters": 33, "max_period": 5}


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["analyze", DEMO_MODEL, "--bogus"],
    ["analyze", DEMO_MODEL, "--max-iters", "abc"],
    ["orbit", DEMO_MODEL, "-f", "b", "--seed", "3"],  # random starts take -f random:SEED
    ["bogus", DEMO_MODEL],
])
def test_usage_errors_exit_one(argv, capsys):
    # argparse would exit 2, the code of a "not convergent" verdict
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: imclim")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["analyze", "--help"])
    assert exc_info.value.code == 0
    assert "--seed" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["orbit", "analyze"])
def test_reader_closing_the_pipe_early_exits_one(command, tmp_path):
    # ``imclim ... | head``: orbit's few lines fail on the flush after the
    # command; the wide model's 70 kB report outgrows stdout's buffer, so
    # its print already writes to the closed pipe
    if command == "orbit":
        argv = ["orbit", DEMO_MODEL, "-f", "b"]
    else:
        model = tmp_path / "wide.json"
        gen.dump_model(gen.random_wide_operator(random.Random(3), 200), model)
        argv = ["analyze", str(model), "--json"]
    script = f"import sys\nfrom imclim.cli import main\nsys.exit(main({argv!r}))\n"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    with subprocess.Popen([sys.executable, "-c", script], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert err == ""


class TestAnalyze:
    def test_convergent_model_exits_zero(self, capsys):
        assert main(["analyze", DEMO_MODEL]) == 0
        out = capsys.readouterr().out
        assert "convergent=yes" in out
        assert "ergodic=no" in out

    def test_builtin_exits_three(self, capsys):
        assert main(["analyze", "builtin:counterexample-5.1"]) == 3
        assert "inconclusive" in capsys.readouterr().out

    def test_nonconvergent_exits_two(self, nonconvergent_path, capsys):
        assert main(["analyze", nonconvergent_path]) == 2
        out = capsys.readouterr().out
        assert "convergent=no" in out

    def test_nonconvergent_report_carries_the_certificate(self, nonconvergent_path, capsys):
        assert main(["analyze", nonconvergent_path, "--json"]) == 2
        report = emitted_report(capsys)
        assert report["verdicts"]["witness_orbit"] == {
            "function": "cyclic-indicator:{b}", "period": 2,
        }

    def test_malformed_model_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "states": ["a"],
            "credal_sets": {"a": [{"a": "2/3"}]},
        }))
        assert main(["analyze", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_json_report_validates_against_schema(self, capsys, nonconvergent_path):
        for model, extra in ((DEMO_MODEL, ["--suite", "2"]),
                             ("builtin:counterexample-5.1", []),
                             (nonconvergent_path, [])):
            assert main(["analyze", model, "--json", *extra]) in (0, 2, 3)
            emitted_report(capsys)

    def test_verdict_and_exit_code_never_disagree(self, capsys, nonconvergent_path):
        expected = {DEMO_MODEL: ("yes", 0),
                    "builtin:counterexample-5.1": ("inconclusive", 3),
                    nonconvergent_path: ("no", 2)}
        for model, (verdict, code) in expected.items():
            assert main(["analyze", model, "--json"]) == code
            report = emitted_report(capsys)
            assert report["verdicts"]["convergent"] == verdict

    @pytest.mark.parametrize("flags, phrase", [
        (["--suite", "0", "--seed", "-1"], "seed must be a non-negative integer"),
        (["--suite", "-3"], "random suite functions must be >= 0"),
    ])
    def test_negative_seed_or_suite_exits_one(self, flags, phrase, capsys):
        assert main(["analyze", DEMO_MODEL, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and phrase in captured.err

    def test_duplicate_state_in_credal_sets_exits_one(self, tmp_path, capsys):
        # the second "b" would otherwise silently replace the first, and the
        # swap model would be reported convergent
        path = tmp_path / "dupe.json"
        path.write_text(
            '{"states": ["a", "b", "c"], "credal_sets": {'
            '"a": [{"a": "1"}], "b": [{"a": "1"}, {"c": "1"}], '
            '"c": [{"b": "1"}], "b": [{"a": "1"}]}}'
        )
        assert main(["analyze", str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and "duplicate" in captured.err


class TestBadInput:
    """Input the model loader, the trace writer or the orbit engine cannot use
    ends as exit 1 with an ``error:`` line, never a traceback."""

    @staticmethod
    def assert_error(argv, capsys, phrase):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and phrase in err
        assert "Traceback" not in err

    def test_non_utf8_model_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        text = '{"states": ["\xe9"], "credal_sets": {"\xe9": [{"\xe9": "1"}]}}'
        path.write_bytes(text.encode("latin-1"))
        for command in ("analyze", "graph", "decompose"):
            self.assert_error([command, str(path)], capsys, "cannot read model file")

    @staticmethod
    def accented_model(tmp_path) -> str:
        path = tmp_path / "accent.json"
        model = {
            "states": ["é", "b"],
            "credal_sets": {"é": [{"é": "1"}], "b": [{"é": "1/2", "b": "1/2"}]},
        }
        path.write_text(json.dumps(model, ensure_ascii=False), encoding="utf-8")
        return str(path)

    @staticmethod
    def run_cli(argv, **env):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), **env}
        return subprocess.run([sys.executable, "-m", "imclim.cli", *argv], env=env,
                              capture_output=True, timeout=60)

    def test_utf8_model_file_under_an_ascii_locale(self, tmp_path):
        # JSON is UTF-8 (RFC 8259), whatever the locale's encoding
        done = self.run_cli(["analyze", self.accented_model(tmp_path), "--json"],
                            LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["model"]["states"] == ["é", "b"]

    def test_trace_of_a_utf8_model_under_an_ascii_locale(self, tmp_path):
        # the trace CSV is UTF-8 like the model file, whatever the locale's encoding
        trace = tmp_path / "t.csv"
        done = self.run_cli(["orbit", self.accented_model(tmp_path), "-f", "b",
                             "--trace", str(trace)],
                            LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        assert done.returncode == 0, done.stderr
        assert trace.read_bytes().decode("utf-8").startswith("iteration,é,b\r\n0,")

    @pytest.mark.parametrize("suite", ["100000000", "10101010101010101010"])
    def test_suite_too_large_to_allocate(self, suite):
        # the child limits its own address space to 1 GiB before it imports
        # the package, so a start block drawn column by column instead of
        # allocated first fails fast too, and never takes the machine's memory
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from imclim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", child, "analyze", DEMO_MODEL, "--json", "--suite", suite],
            env=env, capture_output=True, timeout=60)
        assert done.returncode == 1 and done.stdout == b""
        err = done.stderr.decode()
        assert err.startswith("error:") and "does not fit in memory" in err, err[-500:]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [["analyze"], ["graph", "--dot"]], ids=["analyze", "graph"])
    def test_label_the_output_encoding_cannot_write(self, command, tmp_path):
        done = self.run_cli([command[0], self.accented_model(tmp_path), *command[1:]],
                            PYTHONIOENCODING="ascii")
        assert done.returncode == 1
        err = done.stderr.decode()
        assert err.startswith("error: cannot write output:") and "'ascii' codec" in err
        assert "Traceback" not in err

    def test_integer_literal_beyond_digit_limit(self, tmp_path, capsys):
        path = tmp_path / "digits.json"
        path.write_text('{"states": ["a"], "credal_sets": {"a": [{"a": %s}]}}' % ("1" * 5000))
        self.assert_error(["analyze", str(path)], capsys, "cannot decode JSON")

    def test_mass_with_huge_decimal_exponent(self, tmp_path, capsys):
        # refused before ``Fraction`` expands the exponent into a power of ten
        path = tmp_path / "exponent.json"
        path.write_text(
            '{"states": ["a", "b"], "credal_sets": '
            '{"a": [{"a": "1e-999999999", "b": "1"}], "b": [{"b": "1"}]}}'
        )
        start = time.perf_counter()
        self.assert_error(["analyze", str(path)], capsys, 'credal_sets["a"][0]["a"]')
        assert time.perf_counter() - start < 1.0

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        self.assert_error(["analyze", str(path), "--json"], capsys, "nested too deeply")

    def test_trace_into_missing_directory(self, tmp_path, capsys, monkeypatch):
        # the trace file is opened before the orbit is iterated
        import imclim.cli

        def no_orbits(*args, **kwargs):
            raise AssertionError("iterated before opening the trace file")

        monkeypatch.setattr(imclim.cli, "iterate_orbit", no_orbits)
        target = tmp_path / "missing" / "x.csv"
        self.assert_error(
            ["orbit", DEMO_MODEL, "-f", "b", "--trace", str(target)], capsys,
            "cannot write orbit trace",
        )
        assert not target.parent.exists()

    @pytest.mark.parametrize("command", [
        ["orbit", DEMO_MODEL, "-f", "a"],
        ["analyze", DEMO_MODEL, "--suite", "0"],
    ], ids=["orbit", "analyze"])
    def test_orbit_window_beyond_any_memory(self, command, capsys):
        # numpy refuses a dimension of 10**30 on any machine
        budget = str(10**30)
        self.assert_error(
            [*command, "--max-iters", budget, "--max-period", budget], capsys,
            "does not fit in memory",
        )


class TestOrbit:
    def test_indicator_function(self, capsys):
        assert main(["orbit", DEMO_MODEL, "-f", "b"]) == 0
        out = capsys.readouterr().out
        assert "period: 1" in out

    def test_inline_vector_with_rationals(self, capsys):
        assert main(["orbit", DEMO_MODEL, "-f", "0,1,1/2,0,0.5", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True

    def test_random_seed_function(self, capsys):
        assert main(["orbit", DEMO_MODEL, "-f", "random:7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["period"] == 1

    def test_overflowing_orbit_warns_nothing(self, capsys):
        # f(a) - f(c) overflows; the closed form still finds the finite limit
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["orbit", "builtin:counterexample-5.1", "-f", "1e308,0,-1e308"])
        captured = capsys.readouterr()
        assert code == 0
        assert "residual: 0.000e+00" in captured.out
        assert "cycle[0]: (1e+308, 1e+308, 1e+308)" in captured.out
        assert "RuntimeWarning" not in captured.err

    def test_two_cycle_reports_period_two(self, nonconvergent_path, capsys):
        assert main(["orbit", nonconvergent_path, "-f", "b", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["period"] == 2
        assert payload["converged"] is False

    def test_budget_exhaustion_is_reported(self, capsys):
        assert main(["orbit", "builtin:counterexample-5.1", "-f", "b", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["period"] == "none within budget"

    def test_budget_beyond_the_run_costs_no_memory(self):
        # the run ends on step 107; a window of 10**7 slots is address space only
        budget = str(10**7)
        script = (
            "from imclim.cli import main\n"
            f"code = main(['orbit', {DEMO_MODEL!r}, '-f', 'a',"
            f" '--max-iters', '{budget}', '--max-period', '{budget}'])\n"
            + PRINT_PEAK
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert "iterations: 107" in done.stdout
        code, peak_kib = done.stdout.split("\n")[-2].split()
        assert code == "0"
        assert int(peak_kib) < 100 * 1024

    def test_print_hits_before_the_window_cost_no_memory(self):
        # with the burn-in past the budget every step is a print step, and the
        # exact repeat on step 107 is scored over the 108 written slots alone,
        # not over a copy of the 3 * 10**6-slot window (120 MB at 5 states)
        budget = str(3 * 10**6)
        script = (
            "from imclim.cli import main\n"
            f"code = main(['orbit', {DEMO_MODEL!r}, '-f', 'a', '--max-iters', '{budget}',"
            f" '--max-period', '{budget}', '--burn-in', '{10**7}'])\n"
            + PRINT_PEAK
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert "iterations: 107" in done.stdout
        code, peak_kib = done.stdout.split("\n")[-2].split()
        assert code == "0"
        assert int(peak_kib) < 100 * 1024

    def test_orbit_blocks_log_at_debug_only(self):
        run = [sys.executable, "-m", "imclim.cli", "orbit", DEMO_MODEL, "-f", "b"]
        env = {k: v for k, v in os.environ.items() if k != "IMC_LOG"}
        env["PYTHONPATH"] = str(REPO / "src")
        quiet = subprocess.run(run, env=env, capture_output=True, text=True, timeout=60)
        loud = subprocess.run(run, env={**env, "IMC_LOG": "debug"},
                              capture_output=True, text=True, timeout=60)
        assert quiet.returncode == loud.returncode == 0
        assert quiet.stderr == ""
        assert loud.stdout == quiet.stdout
        # the burn-in lies past the exact repeat, which its print hit finds:
        # no step is scored in full
        assert loud.stderr == ("DEBUG:imclim.orbits:orbit block: 1 columns, 107 steps, "
                               "0 scored in full, with quiet columns; "
                               "stops: exact_repeat 1, sustained 0, budget 0\n")

    @pytest.mark.parametrize("value", ["basic_format", "_styles", "fatal", "WARN", " debug"])
    def test_only_level_names_select_a_log_level(self, value):
        # attributes of the logging module that are no level names mean warning
        run = [sys.executable, "-m", "imclim.cli", "orbit", DEMO_MODEL, "-f", "b"]
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "IMC_LOG": value}
        done = subprocess.run(run, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("period: 1\n")

    def test_trace_export(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["orbit", DEMO_MODEL, "-f", "b", "--trace", str(trace)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,a,b,c,d,e"
        assert len(lines) > 2

    def test_long_trace_streams_in_constant_memory(self, tmp_path, capsys):
        # the trace is replayed row by row, so no iterate outlives its row
        import tracemalloc

        trace = tmp_path / "trace.csv"
        argv = ["orbit", "builtin:counterexample-5.1", "-f", "b",
                "--max-iters", "20000", "--trace", str(trace)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(trace.read_text().splitlines()) == 20002
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("spec, state", [
        (" b", " b"), ("b ", "b "), ("x,y", "x,y"), ("random:1", "random:1"), ("  b  ", "b"),
    ])
    def test_exact_label_names_its_state(self, spec, state, tmp_path, capsys):
        # a spec that is a label, as written, is that state's indicator; any
        # other spec is stripped and read as before
        states = ["b", " b", "b ", "x,y", "random:1"]
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"states": states,
                                    "credal_sets": {s: [{s: "1"}] for s in states}}))
        assert main(["orbit", str(path), "-f", spec, "--json"]) == 0
        limit = json.loads(capsys.readouterr().out)["limit_cycle"][0]
        assert limit == [float(s == state) for s in states]

    def test_lone_number_is_a_one_entry_function(self, tmp_path, capsys):
        # a one-state model's function is one number; elsewhere the length check refuses it
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"states": ["a"], "credal_sets": {"a": [{"a": "1"}]}}))
        for spec in ("0.5", " 1/2 "):
            assert main(["orbit", str(path), "-f", spec, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["limit_cycle"] == [[0.5]]
        assert main(["orbit", DEMO_MODEL, "-f", "0.5"]) == 1
        assert capsys.readouterr().err == "error: function has 1 entries, the model has 5 states\n"
        assert main(["orbit", str(path), "-f", "zz"]) == 1
        assert capsys.readouterr().err == "error: unknown state label 'zz'\n"

    def test_bad_function_spec(self, capsys):
        assert main(["orbit", DEMO_MODEL, "-f", "zz"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_rational_beyond_float_range(self, capsys):
        spec = "9" * 400 + "/1,0,0,0,0"
        assert main(["orbit", DEMO_MODEL, "-f", spec]) == 1
        assert "out of float range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "seed", ["x", "-3", "1.5", "", pytest.param("9" * 5000, id="5000-digits")]
    )
    def test_bad_random_seed(self, seed, capsys):
        assert main(["orbit", DEMO_MODEL, "-f", f"random:{seed}"]) == 1
        assert "non-negative integer" in capsys.readouterr().err


class TestGraph:
    def test_dot_output_is_stable(self, capsys):
        assert main(["graph", DEMO_MODEL, "--dot"]) == 0
        first = capsys.readouterr().out
        assert main(["graph", DEMO_MODEL, "--dot"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert first.startswith("digraph access {")
        assert '"c" -> "a";' in first and '"c" -> "c";' not in first

    def test_edge_listing(self, capsys):
        assert main(["graph", "builtin:counterexample-5.1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["a -> a", "b -> a", "b -> b", "b -> c", "c -> a", "c -> b"]


class TestDecompose:
    def test_json_levels(self, capsys):
        assert main(["decompose", "builtin:counterexample-5.1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, DECOMPOSITION_SCHEMA)
        assert payload["depth"] == 2
        assert payload["levels"][1]["maximal_classes"][0]["members"] == ["b", "c"]
        assert payload["levels"][1]["maximal_classes"][0]["cyclicity"] == 2

    def test_runs_no_orbits(self, nonconvergent_path, capsys, monkeypatch):
        # a "no" verdict would start a witness search; decompose has no verdict
        import imclim.orbits

        def no_orbits(*args, **kwargs):
            raise AssertionError("decompose ran the orbit engine")

        monkeypatch.setattr(imclim.orbits, "iterate_orbit", no_orbits)
        monkeypatch.setattr(imclim.orbits, "iterate_orbits", no_orbits)
        assert main(["decompose", nonconvergent_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, DECOMPOSITION_SCHEMA)
        assert payload["depth"] == 2
        assert payload["levels"][1]["maximal_classes"][0]["members"] == ["b", "c"]
        assert payload["levels"][1]["maximal_classes"][0]["cyclicity"] == 2

    def test_text_output(self, capsys):
        assert main(["decompose", DEMO_MODEL]) == 0
        out = capsys.readouterr().out
        assert "depth: 2" in out
        assert "maximal {d, e}" in out
