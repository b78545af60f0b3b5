import pytest

import gen
from imclim import (
    CounterexampleOperator,
    CredalOperator,
    validate_family,
)

RUNNING_MODEL = {
    "a": [{"a": "1"}],
    "b": [{"b": "1"}],
    "c": [{"a": "1/4", "b": "1/4", "d": "1/4", "e": "1/4"}],
    "d": [{"c": "1"}, {"d": "1"}, {"e": "1"}],
    "e": [{"c": "1"}, {"d": "1"}, {"e": "1"}],
}


def make_running_operator() -> CredalOperator:
    from fractions import Fraction

    sets = {
        label: [
            {target: Fraction(mass) for target, mass in pmf.items()}
            for pmf in pmfs
        ]
        for label, pmfs in RUNNING_MODEL.items()
    }
    return CredalOperator(validate_family(["a", "b", "c", "d", "e"], sets))


def make_two_cycle_operator() -> CredalOperator:
    """Two states that deterministically swap; cyclicity 2, maximal."""
    from fractions import Fraction

    one = Fraction(1)
    sets = {"b": [{"c": one}], "c": [{"b": one}]}
    return CredalOperator(validate_family(["b", "c"], sets))


def make_delayed_cycle_operator() -> CredalOperator:
    """Finitely generated: one absorbing state plus an unabsorbed pure swap.

    The maximal class {a} is not lower reachable from {b, c}, and the
    restriction to {b, c} is a cyclicity-2 swap, so the operator is not
    convergent.
    """
    from fractions import Fraction

    one = Fraction(1)
    sets = {
        "a": [{"a": one}],
        "b": [{"a": one}, {"c": one}],
        "c": [{"b": one}],
    }
    return CredalOperator(validate_family(["a", "b", "c"], sets))


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
