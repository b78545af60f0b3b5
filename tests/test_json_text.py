"""``json_text``, the package's one JSON writer, against ``json.dumps(..., indent=2)``.

Every ``--json`` output goes through ``imclim.report.json_text``: the
analysis report, the ``orbit`` object and the ``decompose`` block.  Each
must be the text ``json.dumps`` with ``indent=2`` would write, byte for byte.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from imclim import analyze, load_model
from imclim.cli import orbit_payload
from imclim.orbits import iterate_orbit
from imclim.report import decomposition_block, json_text


def dumps(value) -> str:
    return json.dumps(value, indent=2)


# quotes, backslashes, control characters, a lone surrogate, non-ASCII and astral
SPECIAL = '"\\/\b\f\n\r\t\x00\x1f\x7fé \ud800中\U0001d11e'
strings = st.text(st.sampled_from(SPECIAL) | st.characters())
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.sampled_from([0, 1, -0.0, 5e-324, 1e-310, 1e308, float("nan"),
                       float("inf"), float("-inf")])
    | st.floats()
    | strings
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.lists(inner, max_size=6).map(tuple)
    | st.lists(strings, max_size=6)
    | st.dictionaries(strings, inner, max_size=6),
    max_leaves=20,
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(values)
def test_json_text_is_json_dumps_with_indent_2(value):
    assert json_text(value) == dumps(value)


@pytest.mark.parametrize("value", [
    [1, True, 0, False, 1.0, 0.0],  # 1 == True and 0 == False, but they print apart
    ["a", 1],  # a list of strings that is not one to the end
    [["a", "b"], []],
    {"": {}, "x": [[]], "y": ()},
    "",
    -0.0,
])
def test_pinned_values(value):
    assert json_text(value) == dumps(value)


@pytest.mark.parametrize("value", [np.int64(1), {1, 2}, {1: "a"}, ["a", {("k",): 1}]])
def test_what_is_no_json_raises_type_error(value):
    # json.dumps writes the key 1 as "1"; the package's dicts have only str keys
    with pytest.raises(TypeError):
        json_text(value)


def test_every_report_and_block_of_seeded_families():
    reports = suites = cycles = 0
    for k, op in enumerate(gen.seeded_families(2000)):
        with_suite = k % 10 == 0
        data = analyze(op, suite_random=2 if with_suite else None, seed=k).to_dict()
        assert json_text(data) == dumps(data)  # AnalysisReport.to_json, from one to_dict
        block = data["decomposition"]  # decompose --json prints decomposition_block
        assert json_text(block) == dumps(block)
        if with_suite:
            payload = orbit_payload(iterate_orbit(op, np.random.default_rng(k).random(op.n)))
            assert json_text(payload) == dumps(payload)
            cycles += payload["limit_cycle"] is not None
            suites += 1
        reports += 1
    assert (reports, suites) == (2000, 200) and cycles > 100, cycles


def test_the_builtin_with_and_without_a_suite():
    op = load_model("builtin:counterexample-5.1")
    for suite in (None, 3):
        report = analyze(op, suite_random=suite)
        assert report.to_json() == dumps(report.to_dict())
    block = decomposition_block(report.decomposition)
    assert json_text(block) == dumps(block)
    # without its closed-form limit the orbit spends its budget; with it,
    # the certified limit is the payload's one cycle element
    for orbit_op, period in ((gen.UncertifiedCounterexample(), "none within budget"), (op, 1)):
        payload = orbit_payload(iterate_orbit(orbit_op, np.array([0.0, 1.0, 0.0])))
        assert payload["period"] == period
        assert json_text(payload) == dumps(payload)
