import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

import gen
from imclim import (
    CounterexampleOperator,
    CredalOperator,
    ModelValidationError,
    load_model,
    parse_model,
    parse_rational,
)
from imclim.modelio import MAX_DECIMAL_EXPONENT

F = Fraction

DEMO_MODEL = Path(__file__).resolve().parent.parent / "demos" / "running-example.json"


class TestParseRational:
    def test_fraction_string(self):
        assert parse_rational("1/4") == F(1, 4)

    def test_decimal_string_is_exact(self):
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational("0.1") == F(1, 10)

    def test_integer_string(self):
        assert parse_rational("3") == F(3)

    def test_bare_number_rejected_with_hint(self):
        with pytest.raises(ModelValidationError, match="rational string"):
            parse_rational(0.25)
        with pytest.raises(ModelValidationError, match='"1/4"'):
            parse_rational(1)

    def test_garbage_rejected(self):
        with pytest.raises(ModelValidationError, match="cannot parse"):
            parse_rational("one half")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ModelValidationError):
            parse_rational("1/0")

    def test_decimal_exponent_bound(self):
        bound = MAX_DECIMAL_EXPONENT
        assert parse_rational(f"1e-{bound}") == F(1, 10**bound)
        assert parse_rational(f"2E+{bound}") == 2 * 10**bound
        assert parse_rational("1e-0_0_5") == F(1, 10**5)
        for text in (f"1e-{bound + 1}", f"1e{bound + 1}", "1e-999999999", "1e-" + "9" * 5000):
            with pytest.raises(ModelValidationError, match=r"mass: the decimal exponent"):
                parse_rational(text, where="mass")


class TestLoadModel:
    def test_demo_file(self):
        op = load_model(DEMO_MODEL)
        assert isinstance(op, CredalOperator)
        assert op.space.labels == ("a", "b", "c", "d", "e")
        assert gen.upper_indicator(op, 2) == (F(0), F(0), F(0), F(1), F(1))

    def test_builtin_name(self):
        op = load_model("builtin:counterexample-5.1")
        assert isinstance(op, CounterexampleOperator)

    def test_unknown_builtin_lists_known(self):
        with pytest.raises(ModelValidationError, match="counterexample-5.1"):
            load_model("builtin:nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelValidationError, match="cannot read"):
            load_model(tmp_path / "absent.json")

    def test_invalid_json_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "states": ["a"],\n  "credal_sets": {\n')
        with pytest.raises(ModelValidationError, match="line"):
            load_model(bad)

    def test_bare_number_in_file_rejected(self, tmp_path):
        bad = tmp_path / "floats.json"
        bad.write_text(json.dumps({
            "states": ["a"],
            "credal_sets": {"a": [{"a": 1.0}]},
        }))
        with pytest.raises(ModelValidationError, match="rational string"):
            load_model(bad)

    def test_validation_error_names_state_and_pmf(self, tmp_path):
        bad = tmp_path / "sum.json"
        bad.write_text(json.dumps({
            "states": ["a", "b"],
            "credal_sets": {
                "a": [{"a": "1"}],
                "b": [{"a": "1/2", "b": "1/3"}],
            },
        }))
        with pytest.raises(ModelValidationError, match="pmf #0 for state 'b'"):
            load_model(bad)


    def test_duplicate_state_in_credal_sets_rejected(self, tmp_path):
        bad = tmp_path / "dupe-state.json"
        bad.write_text(
            '{"states": ["a", "b"], "credal_sets": '
            '{"a": [{"a": "1"}], "b": [{"b": "1"}], "b": [{"a": "1"}]}}'
        )
        with pytest.raises(ModelValidationError, match=r"duplicate keys.*\['b'\]"):
            load_model(bad)

    def test_duplicate_target_in_pmf_rejected(self, tmp_path):
        bad = tmp_path / "dupe-target.json"
        bad.write_text(
            '{"states": ["a", "b"], "credal_sets": '
            '{"a": [{"a": "1"}], "b": [{"a": "1/2", "b": "1/2", "a": "1/2"}]}}'
        )
        with pytest.raises(ModelValidationError, match=r"duplicate keys.*\['a'\]"):
            load_model(bad)

    def test_duplicate_among_many_keys_rejected_quickly(self, tmp_path):
        # counting once per key instead of once per key and element
        labels = [f"s{i}" for i in range(20_000)]
        sets = ", ".join(f'"{x}": [{{"{x}": "1"}}]' for x in labels)
        path = tmp_path / "many.json"
        path.write_text(f'{{"states": [], "credal_sets": {{{sets}, "s7": []}}}}')
        start = time.perf_counter()
        with pytest.raises(ModelValidationError, match=r"duplicate keys.*\['s7'\]"):
            load_model(path)
        assert time.perf_counter() - start < 2.0

    def test_duplicate_top_level_key_rejected(self, tmp_path):
        bad = tmp_path / "dupe-top.json"
        bad.write_text('{"states": ["a"], "states": ["a"], "credal_sets": {"a": [{"a": "1"}]}}')
        with pytest.raises(ModelValidationError, match="duplicate keys"):
            load_model(bad)


class TestParseModel:
    def test_sum_too_long_to_print(self):
        # 1 - 10**-5000 has more digits than the interpreter converts to text
        with pytest.raises(ModelValidationError, match="too long to print"):
            parse_model({"states": ["a"], "credal_sets": {"a": [{"a": "1e-5000"}]}})

    def test_structure_errors(self):
        with pytest.raises(ModelValidationError, match="JSON object"):
            parse_model([1, 2])
        with pytest.raises(ModelValidationError, match='"states"'):
            parse_model({"credal_sets": {}})
        with pytest.raises(ModelValidationError, match='"credal_sets"'):
            parse_model({"states": ["a"]})
        with pytest.raises(ModelValidationError, match="list of pmf objects"):
            parse_model({"states": ["a"], "credal_sets": {"a": {"a": "1"}}})


class TestRoundTrip:
    def test_family_round_trips(self, running_op):
        payload = gen.family_to_jsonable(running_op.family)
        reparsed = parse_model(payload)
        assert reparsed.family == running_op.family

    def test_dump_and_load(self, running_op, tmp_path):
        target = tmp_path / "model.json"
        gen.dump_model(running_op.family, target)
        op = load_model(target)
        assert op.family == running_op.family

    def test_serialised_masses_are_canonical_strings(self, running_op):
        payload = gen.family_to_jsonable(running_op.family)
        entry = payload["credal_sets"]["c"][0]
        assert entry == {"a": "1/4", "b": "1/4", "d": "1/4", "e": "1/4"}
