import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import jsonschema
import pytest

from imclim.cli import main

REPO = Path(__file__).resolve().parent.parent
DEMO_MODEL = str(REPO / "demos" / "running-example.json")
SCHEMA_PATH = REPO / "docs" / "report.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())
# ``decompose --json`` prints the report's decomposition block on its own
DECOMPOSITION_SCHEMA = {"$defs": SCHEMA["$defs"], **SCHEMA["properties"]["decomposition"]}


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
            "import resource\n"
            "from imclim.cli import main\n"
            f"code = main(['orbit', {DEMO_MODEL!r}, '-f', 'a',"
            f" '--max-iters', '{budget}', '--max-period', '{budget}'])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert "iterations: 107" in done.stdout
        code, peak_kib = done.stdout.split("\n")[-2].split()
        assert code == "0"
        assert int(peak_kib) < 100 * 1024

    def test_trace_export(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        assert main(["orbit", DEMO_MODEL, "-f", "b", "--trace", str(trace)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,a,b,c,d,e"
        assert len(lines) > 2

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
