"""Property tests of the error contract: bad input ends as an ``ImclimError``
and, on the command line, as exit code 1 with an ``error:`` line; never as a
traceback.  Examples are derandomized, so every run checks the same inputs."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
from imclim import ImclimError, ModelValidationError, load_model, parse_model
from imclim.cli import main
from imclim.modelio import parse_rational_pair

DEMO_MODEL = str(Path(__file__).resolve().parent.parent / "demos" / "running-example.json")
SWAP_MODEL = {
    "states": ["a", "b", "c"],
    "credal_sets": {"a": [{"a": "1"}], "b": [{"a": "1"}, {"c": "1"}], "c": [{"b": "1"}]},
}

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def mostly(usual, unusual):
    """``usual``, except for about one draw in six from ``unusual``."""
    return st.integers(0, 5).flatmap(lambda k: unusual if k == 5 else usual)


LABELS = mostly(st.sampled_from(["a", "b", "c"]), st.text(max_size=3))
MASSES = mostly(
    st.sampled_from(["1", "0", "1/2", "0.5", "1/3", "2/3", "-1/2", "1e-5000", "1e5000"]),
    st.sampled_from(["1/0", "nan", "inf", "", "x", "1/" + "9" * 5000])
    | st.text(max_size=4) | st.integers() | st.floats() | st.booleans() | st.none(),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
# fragments spliced into encoded documents: literals the decoder treats specially
JSON_TOKENS = st.sampled_from(
    ["1" * 5000, "NaN", "-Infinity", "1e400", "[" * 5000, '"a": 1, "a": 2', "}", ",", '"\\ud800"']
)


@st.composite
def model_documents(draw):
    """Documents shaped like models, with any part free to be wrong."""
    states = draw(mostly(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True),
                         st.lists(LABELS, max_size=4)))
    target = mostly(st.sampled_from(states or ["a"]), LABELS)
    pmfs = mostly(st.lists(st.dictionaries(target, MASSES, min_size=1, max_size=2),
                           min_size=1, max_size=2), JSON_VALUES)
    sets = {label: draw(pmfs) for label in states}
    if draw(mostly(st.just(False), st.just(True))):
        sets[draw(LABELS)] = draw(pmfs)
    doc = {"states": states, "credal_sets": sets}
    if draw(mostly(st.just(False), st.just(True))):
        doc[draw(st.sampled_from(["states", "credal_sets", "extra"]))] = draw(JSON_VALUES)
    return doc


DOCUMENTS = mostly(model_documents(), JSON_VALUES | st.just(SWAP_MODEL))


@st.composite
def json_texts(draw):
    """Encoded documents with one slice replaced, or free text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=40))
    text = json.dumps(draw(DOCUMENTS))
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 8)))
    return text[:i] + draw(JSON_TOKENS | st.text(max_size=4)) + text[j:]


def refuses_only_with_imclim_errors(call, *args):
    try:
        call(*args)
    except ImclimError:
        pass


@FUZZ
@given(DOCUMENTS)
def test_parse_model_fails_only_with_imclim_errors(doc):
    refuses_only_with_imclim_errors(parse_model, doc)


@FUZZ
@given(DOCUMENTS)
def test_parse_model_matches_the_fraction_loader(doc):
    try:
        space, reference = gen.fraction_load(doc)
    except ModelValidationError as exc:
        with pytest.raises(ModelValidationError) as got:
            parse_model(doc)
        assert str(got.value) == str(exc)
    else:
        op = parse_model(doc)
        assert op.space == space
        assert tuple(tuple(gen.masses(p) for p in sets) for sets in op.pmfs) == reference


DIGITS = "0123456789\u0663\u0669\u0966\uff11"  # ASCII, Arabic-Indic, Devanagari, fullwidth
RATIONAL_ALPHABET = DIGITS + "/._eE+- \t\n"
RATIONAL_TEXTS = st.text(RATIONAL_ALPHABET, max_size=12) | st.tuples(
    st.sampled_from(["", "+", "-", " "]),
    st.text(DIGITS + "_", max_size=5),
    st.sampled_from(["", "/", ".", "e-", "E+", "/0", "_"]),
    st.text(DIGITS + "_", max_size=5),
    st.sampled_from(["", " ", "\n", "e3", "e-10001"]),
).map("".join)


@settings(FUZZ, max_examples=1000)
@given(RATIONAL_TEXTS)
def test_pair_parser_matches_fraction(text):
    try:
        expected = gen.fraction_parse_rational(text, where="mass")
    except ModelValidationError as exc:
        with pytest.raises(ModelValidationError) as got:
            parse_rational_pair(text, where="mass")
        assert str(got.value) == str(exc)
    else:
        assert parse_rational_pair(text, where="mass") == (expected.numerator, expected.denominator)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "swap.json").write_text(json.dumps(SWAP_MODEL))
    return root


def test_load_model_fails_only_with_imclim_errors(scratch):
    path = scratch / "model.json"

    @FUZZ
    @given(json_texts() | st.binary(max_size=40))
    def check(content):
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        refuses_only_with_imclim_errors(load_model, path)

    check()


HUGE = st.integers(10**18, 10**30)
NOT_NUMBERS = st.sampled_from(["abc", "", "1e3", "0x10", "nan", "inf", "-inf"]) | st.text(max_size=4)
OUT_OF_RANGE = st.integers(-(10**30), 0).map(str) | NOT_NUMBERS
VALUES = {
    "--tolerance": mostly(st.floats(1e-12, 1.0).map(str),
                          st.floats().map(str) | st.sampled_from(["0", "-1e-9"]) | NOT_NUMBERS),
    "--max-period": mostly(st.integers(1, 64).map(str), HUGE.map(str) | OUT_OF_RANGE),
    "--burn-in": mostly(st.integers(0, 300).map(str), HUGE.map(str) | OUT_OF_RANGE),
}
FUNCTIONS = mostly(
    st.sampled_from(["a", "b", "random:3", "random:" + "9" * 40, "0,1,0,0,0", "0,1/2,1,0,0",
                     "1e308,-1e308,1e308,-1e308,1e308"]),
    st.sampled_from(["zz", "", ",", "random:-1", "random:x", "nan,0,0,0,0", "inf,0,0,0,0",
                     "1/0,0,0,0,0", "9" * 400 + "/1,0,0,0,0"])
    | st.lists(st.floats().map(str) | st.sampled_from(["1/3", "-2/7", "x"]), max_size=5).map(",".join)
    | st.text(max_size=10),
)
OUTPUT_FLAG = {"analyze": "--json", "orbit": "--json", "graph": "--dot", "decompose": "--json"}


@st.composite
def argvs(draw, models):
    """Command lines drawn from the CLI grammar, with out-of-range and free values.

    Budgets are capped (``--max-iters`` at most 2000, ``--suite`` at most 8)
    so that every example runs in milliseconds.
    """
    command = draw(mostly(st.sampled_from(list(OUTPUT_FLAG)), st.just("bogus")))
    argv = [command]
    if draw(mostly(st.just(True), st.just(False))):
        argv.append(draw(models))
    if command in ("analyze", "orbit"):
        argv += ["--max-iters", draw(mostly(st.integers(1, 2000).map(str),
                                            st.integers(-2, 0).map(str) | NOT_NUMBERS))]
        for flag, values in VALUES.items():
            if draw(st.booleans()):
                argv += [flag, draw(values)]
    if command == "analyze":
        if draw(st.booleans()):
            argv += ["--suite", draw(mostly(st.integers(0, 8).map(str), OUT_OF_RANGE))]
        if draw(st.booleans()):
            argv += ["--seed", draw(mostly(st.integers(0, 10**30).map(str), OUT_OF_RANGE))]
    if command == "orbit":
        if draw(mostly(st.just(True), st.just(False))):
            argv += ["-f", draw(FUNCTIONS)]
        if draw(mostly(st.just(False), st.just(True))):
            argv += ["--trace", "/nonexistent-imclim-dir/trace.csv"]
    if draw(st.booleans()):
        argv.append(draw(mostly(st.just(OUTPUT_FLAG.get(command, "--json")),
                                st.sampled_from(["--json", "--dot"]))))
    if draw(mostly(st.just(False), st.just(True))):
        token = draw(st.text(max_size=8))
        if not token.startswith(("-h", "--h")):  # help exits 0 through SystemExit
            argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


def test_cli_exit_code_matches_error_line(scratch):
    models = mostly(
        st.sampled_from([DEMO_MODEL, "builtin:counterexample-5.1", str(scratch / "swap.json")]),
        st.sampled_from(["builtin:nope", str(scratch / "missing.json"), str(scratch)]),
    )

    @FUZZ
    @given(argvs(models))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        assert (code == 1) == err.getvalue().startswith("error:"), (argv, err.getvalue())

    check()
