import pytest

import gen
from imclim import (
    CounterexampleOperator,
    CredalOperator,
    parse_model,
)

RUNNING_MODEL = {
    "a": [{"a": "1"}],
    "b": [{"b": "1"}],
    "c": [{"a": "1/4", "b": "1/4", "d": "1/4", "e": "1/4"}],
    "d": [{"c": "1"}, {"d": "1"}, {"e": "1"}],
    "e": [{"c": "1"}, {"d": "1"}, {"e": "1"}],
}


def make_running_operator() -> CredalOperator:
    return parse_model({"states": ["a", "b", "c", "d", "e"], "credal_sets": RUNNING_MODEL})


def make_two_cycle_operator() -> CredalOperator:
    """Two states that deterministically swap; cyclicity 2, maximal."""
    return gen.build(["b", "c"], {"b": [{"c": 1}], "c": [{"b": 1}]})


def make_delayed_cycle_operator() -> CredalOperator:
    """Finitely generated: one absorbing state plus an unabsorbed pure swap.

    The maximal class {a} is not lower reachable from {b, c}, and the
    restriction to {b, c} is a cyclicity-2 swap, so the operator is not
    convergent.
    """
    sets = {"a": [{"a": 1}], "b": [{"a": 1}, {"c": 1}], "c": [{"b": 1}]}
    return gen.build(["a", "b", "c"], sets)


@pytest.fixture
def running_op() -> CredalOperator:
    return make_running_operator()


@pytest.fixture
def counterexample_op() -> CounterexampleOperator:
    return CounterexampleOperator()


@pytest.fixture
def identity5_op() -> CredalOperator:
    return gen.identity_operator(["a", "b", "c", "d", "e"])


@pytest.fixture
def two_cycle_op() -> CredalOperator:
    return make_two_cycle_operator()


@pytest.fixture
def delayed_cycle_op() -> CredalOperator:
    return make_delayed_cycle_operator()
