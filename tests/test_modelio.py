import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gen
from imclim import (
    CounterexampleOperator,
    CredalOperator,
    ModelValidationError,
    load_model,
    parse_model,
)
from imclim.modelio import MAX_DECIMAL_EXPONENT, parse_rational_pair
from gen import parse_rational

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
        reparsed = parse_model(gen.to_document(running_op))
        assert (reparsed.space, reparsed.pmfs) == (running_op.space, running_op.pmfs)

    def test_dump_and_load(self, running_op, tmp_path):
        target = tmp_path / "model.json"
        gen.dump_model(running_op, target)
        op = load_model(target)
        assert (op.space, op.pmfs) == (running_op.space, running_op.pmfs)

    def test_serialised_masses_are_canonical_strings(self, running_op):
        payload = gen.to_document(running_op)
        entry = payload["credal_sets"]["c"][0]
        assert entry == {"a": "1/4", "b": "1/4", "d": "1/4", "e": "1/4"}


ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")


def spell(rng: random.Random, m: Fraction) -> str:
    """One of several strings that all parse to ``m``."""
    p, q = m.numerator, m.denominator
    k = rng.randint(2, 5)
    forms = [f"{p}/{q}", f"{p * k}/{q * k}", f" {p}/{q} ", f"+{p}/{q}", f"\t{p}/{q}\n",
             f"{p}/{q}".translate(ARABIC_INDIC), "_".join(str(11 * p)) + "/" + "_".join(str(11 * q))]
    if q == 1:
        forms.append(str(p))
    digits = next((e for e in range(7) if 10**e % q == 0), None)
    if digits is not None:  # a terminating decimal
        scaled = str(p * 10**digits // q).rjust(digits + 1, "0")
        forms += [f"{scaled[:-digits]}.{scaled[-digits:]}" if digits else f"{scaled}.0",
                  f"{scaled}e-{digits}", f"{scaled}E-{digits}"]
    return rng.choice(forms)


def spelled_document(rng: random.Random, op) -> dict:
    """The operator's model as a document: every mass spelled at random, zero
    masses added, some pmfs repeated under other spellings, keys shuffled."""
    labels = op.space.labels
    sets = {}
    for x in rng.sample(range(len(labels)), len(labels)):
        pmfs = []
        for p in op.pmfs[x]:
            for _ in range(1 + (rng.random() < 0.3)):
                entry = {labels[i]: spell(rng, m) for i, m in gen.masses(p)}
                for i in rng.sample(range(len(labels)), rng.randint(0, len(labels))):
                    entry.setdefault(labels[i], rng.choice(["0", "0/7", "0.0", "0e5", " 0 "]))
                keys = rng.sample(list(entry), len(entry))
                pmfs.insert(rng.randint(0, len(pmfs)), {y: entry[y] for y in keys})
        sets[labels[x]] = pmfs
    return {"states": list(labels), "credal_sets": sets}


def corrupt(rng: random.Random, doc: dict) -> None:
    """Put one fault into ``doc``: a bad mass, target, pmf or credal set."""
    sets = doc["credal_sets"]
    whole = [x for x, pmfs in sets.items()
             if isinstance(pmfs, list) and pmfs and all(isinstance(e, dict) and e for e in pmfs)]
    if not whole:  # an earlier fault left no credal set to corrupt further
        sets["zz"] = []
        return
    label = rng.choice(whole)
    pmfs = sets[label]
    entry = rng.choice(pmfs)
    target = rng.choice(list(entry))
    fault = rng.randrange(12)
    if fault == 0:
        entry[target] = "-1/2"
    elif fault == 1:
        entry[target] = rng.choice(["1/3", "2", "0.125", "7e-1"])  # the sum moves off 1
    elif fault == 2:
        entry[rng.choice(["zz", "?"])] = rng.choice(["0", "1/4"])
    elif fault == 3:
        entry[target] = rng.choice(["one half", "1//2", "", "1/2/3", "--1", "\u00b2"])
    elif fault == 4:
        entry[target] = rng.choice(["1/0", "0/0", " 3/0"])
    elif fault == 5:
        entry[target] = rng.choice(["1e-10001", "5E+20000", "1e-999999999"])
    elif fault == 6:
        entry[target] = rng.choice([0.5, 1, None, True])
    elif fault == 7:
        del sets[label]
    elif fault == 8:
        sets[label] = []
    elif fault == 9:
        sets[rng.choice(["zz", "?"])] = [{label: "1"}]
    elif fault == 10:
        sets[label] = {target: "1"}
    else:
        pmfs[rng.randrange(len(pmfs))] = rng.choice([[], "1", None])


def first_error(call, doc) -> str | None:
    try:
        call(doc)
    except ModelValidationError as exc:
        return str(exc)
    return None


class TestIntegerLoader:
    """``parse_model`` against the ``Fraction``-per-mass reference loader."""

    def test_equivalent_spellings_load_identically(self):
        rng = random.Random(1301)
        for _ in range(2000):
            n = rng.randint(1, 7)
            max_den = rng.choice([8, 8, 1000, 10**30, 10**400])
            canonical = gen.random_operator(rng, n, max_pmfs=rng.randint(1, 4), max_den=max_den)
            doc = spelled_document(rng, canonical)
            op = parse_model(doc)
            space, reference = gen.fraction_load(doc)
            assert (op.space, op.pmfs) == (canonical.space, canonical.pmfs)
            assert op.space == space
            assert tuple(tuple(gen.masses(p) for p in sets) for sets in op.pmfs) == reference
            starts, matrix, rows = gen.fraction_rows(n, reference)
            assert np.array_equal(op._matrix.view(np.uint64), matrix.view(np.uint64))
            table = gen.dense_table(op.supports())
            assert np.array_equal(table.rows, rows)
            assert np.array_equal(table.starts, starts)

    def test_faults_raise_the_reference_error(self):
        rng = random.Random(1302)
        errors = 0
        for case in range(600):
            n = rng.randint(1, 6)
            doc = spelled_document(rng, gen.random_operator(rng, n, max_pmfs=rng.randint(1, 3)))
            for _ in range(1 + case % 2):  # every other case has faults in two places
                corrupt(rng, doc)
            expected = first_error(lambda d: gen.fraction_load(d), doc)
            assert first_error(parse_model, doc) == expected
            errors += expected is not None
        assert errors >= 500

    def test_plain_fractions_build_no_fraction(self, tmp_path, monkeypatch):
        path = tmp_path / "wide.json"
        wide = gen.random_wide_operator(random.Random(1303), 48)
        gen.dump_model(wide, path)
        calls = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        op = load_model(path)
        assert calls == []
        assert parse_rational("1/2") == F(1, 2) and calls  # the wrapper counts
        monkeypatch.undo()
        assert (op.space, op.pmfs) == (wide.space, wide.pmfs)
