import random
from fractions import Fraction

import pytest

import gen
from imclim import (
    ModelValidationError,
    PreconditionError,
    partition_states,
)
from gen import lower_reach_set

F = Fraction


def labelled(op, states):
    return gen.labels_of(op.space, states)


class TestLowerReachSet:
    def test_running_example_sequence(self, running_op):
        reach, sequence = lower_reach_set(running_op.supports(), {0, 1})
        assert labelled(running_op, reach) == ("a", "b", "c")
        assert [labelled(running_op, s) for s in sequence] == [("a", "b"), ("a", "b", "c")]

    def test_full_space_in_zero_steps(self, running_op):
        reach, sequence = lower_reach_set(running_op.supports(), range(5))
        assert reach == frozenset(range(5))
        assert len(sequence) == 1

    def test_counterexample_stays_put(self, counterexample_op):
        reach, sequence = lower_reach_set(counterexample_op.supports(), {0})
        assert reach == frozenset({0})
        assert len(sequence) == 1

    def test_not_closed_rejected(self, running_op):
        with pytest.raises(PreconditionError, match="not closed"):
            lower_reach_set(running_op.supports(), {2, 3, 4})

    def test_index_out_of_range_rejected(self, running_op):
        for bad in ({5}, {-1, 0}, {1.5}):
            with pytest.raises(ModelValidationError, match="out of range"):
                lower_reach_set(running_op.supports(), bad)

    def test_matches_brute_force_iteration(self):
        rng = random.Random(41)
        checked = 0
        while checked < 120:
            op = gen.random_operator(rng, n=rng.randint(2, 5))
            for target in gen.closed_subsets(op):
                reach, sequence = lower_reach_set(op.supports(), target)
                oracle = gen.brute_force_lower_reach(op, target)
                for step, positives in oracle.items():
                    expected = sequence[min(step, len(sequence) - 1)]
                    assert positives == expected
                assert reach == oracle[op.n]
                assert len(sequence) <= op.n - len(target) + 1
                checked += 1


class TestPartition:
    def test_running_example(self, running_op):
        part = partition_states(running_op.supports())
        assert labelled(running_op, gen.maximal_states(part)) == ("a", "b")
        assert labelled(running_op, gen.absorbed_transients(part)) == ("c",)
        assert labelled(running_op, gen.unabsorbed_transients(part)) == ("d", "e")

    def test_precise_operator_has_no_unabsorbed(self):
        # single-pmf rows: everything transient is absorbed
        rng = random.Random(42)
        for _ in range(60):
            op = gen.random_operator(rng, max_pmfs=1)
            part = partition_states(op.supports())
            assert not gen.unabsorbed_transients(part)
            assert gen.absorbed_transients(part) == (
                frozenset(range(op.n)) - gen.maximal_states(part)
            )

    def test_counterexample(self, counterexample_op):
        part = partition_states(counterexample_op.supports())
        assert labelled(counterexample_op, gen.maximal_states(part)) == ("a",)
        assert not gen.absorbed_transients(part)
        assert labelled(counterexample_op, gen.unabsorbed_transients(part)) == ("b", "c")

    def test_pieces_disjoint_and_cover(self):
        rng = random.Random(43)
        for _ in range(150):
            op = gen.random_operator(rng)
            part = partition_states(op.supports())
            pieces = [
                gen.maximal_states(part),
                gen.absorbed_transients(part),
                gen.unabsorbed_transients(part),
            ]
            assert sum(len(p) for p in pieces) == op.n
            assert frozenset().union(*pieces) == frozenset(range(op.n))


class TestAbsorbing:
    def test_running_maximal_states_not_absorbing(self, running_op):
        assert not gen.is_absorbing(running_op, {0, 1})

    def test_full_space_absorbing(self, running_op):
        assert gen.is_absorbing(running_op, range(5))

    def test_singleton_chain_absorbing(self):
        sets = {
            "a": [{"a": F(1)}],
            "b": [{"a": F(1, 2), "b": F(1, 2)}],
            "c": [{"b": F(1)}],
        }
        op = gen.build(["a", "b", "c"], sets)
        assert gen.is_absorbing(op, {0})
