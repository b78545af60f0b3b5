import random
from fractions import Fraction

import numpy as np
import pytest

import gen
from imclim import (
    CredalOperator,
    NotWellDefinedError,
    PreconditionError,
    partition_states,
    restrict_family,
    restrict_to_maximal,
)

F = Fraction


def masses(op):
    return tuple(tuple(p.mass for p in sets) for sets in op.family.per_state)


class TestRestrictFamily:
    def test_running_tail_pair(self, running_op):
        restricted = restrict_family(running_op, {3, 4})
        assert restricted.labels == ("d", "e")
        point_d, point_e = (F(1), F(0)), (F(0), F(1))
        for sets in masses(restricted.operator):
            assert set(sets) == {point_d, point_e}
        # with both point masses available the restriction maximises
        assert restricted.operator.apply_exact((F(2), F(5))) == (F(5), F(5))

    def test_full_space_is_identity_transformation(self, running_op, counterexample_op):
        assert restrict_family(running_op, range(5)).operator.family == running_op.family
        assert restrict_family(counterexample_op, range(3)).operator is counterexample_op

    def test_counterexample_swap_pair(self, counterexample_op):
        restricted = restrict_family(counterexample_op, {1, 2})
        assert restricted.labels == ("b", "c")
        assert masses(restricted.operator) == (
            ((F(0), F(1)),),  # at b: point mass on c
            ((F(1), F(0)),),  # at c: point mass on b
        )

    def test_empty_restricted_set_names_state(self, counterexample_op):
        with pytest.raises(NotWellDefinedError, match="state 'b'"):
            restrict_family(counterexample_op, {1})

    def test_index_maps(self, running_op):
        restricted = restrict_family(running_op, {3, 4})
        assert restricted.to_parent(0) == 3
        assert restricted.from_parent(4) == 1
        assert np.allclose(
            restricted.restrict_function([0.0, 1.0, 2.0, 3.0, 4.0]), [3.0, 4.0]
        )

    def test_restricted_pmfs_supported_and_normalised(self):
        rng = random.Random(51)
        hits = 0
        while hits < 150:
            op = gen.random_operator(rng)
            keep = sorted(gen.random_subset(rng, op.n, allow_full=False))
            try:
                restricted = restrict_family(op, keep)
            except NotWellDefinedError:
                continue
            hits += 1
            for x, sets in enumerate(restricted.operator.family.per_state):
                assert sets
                for p in sets:
                    assert sum(p.mass) == 1
            # every kept pmf comes from a parent pmf supported inside the class
            for local_x, parent_x in enumerate(restricted.members):
                kept = {p.mass for p in restricted.operator.family.per_state[local_x]}
                expected = {
                    tuple(p.mass[i] for i in keep)
                    for p in op.family.per_state[parent_x]
                    if p.support <= frozenset(keep)
                }
                assert kept == expected


class TestRestrictionInequality:
    def test_iterates_never_exceed_global_restriction(self):
        rng = random.Random(52)
        hits = 0
        while hits < 120:
            op = gen.random_operator(rng, n=rng.randint(2, 4))
            keep = sorted(gen.random_subset(rng, op.n, allow_full=False))
            try:
                restricted = restrict_family(op, keep)
            except NotWellDefinedError:
                continue
            hits += 1
            f = gen.random_rational_function(rng, op.n)
            local = restricted.restrict_function_exact(f)
            global_iter = f
            for _ in range(4):
                local = restricted.operator.apply_exact(local)
                global_iter = op.apply_exact(global_iter)
                clipped = tuple(global_iter[i] for i in restricted.members)
                assert all(a <= b for a, b in zip(local, clipped))


class TestRestrictToMaximal:
    def test_running_singletons(self, running_op):
        for index, label in ((0, "a"), (1, "b")):
            restricted = restrict_to_maximal(running_op, {index})
            assert restricted.labels == (label,)
            assert restricted.operator.apply_exact((F(7),)) == (F(7),)

    def test_rejects_non_maximal(self, running_op):
        with pytest.raises(PreconditionError, match="not a maximal"):
            restrict_to_maximal(running_op, {2, 3, 4})

    def test_exact_commutation_on_maximal_classes(self):
        # on a maximal class, restricting then iterating equals iterating then
        # restricting, exactly
        rng = random.Random(53)
        checked = 0
        while checked < 120:
            op = gen.random_operator(rng, n=rng.randint(2, 4))
            part = partition_states(op)
            for members in part.maximal_classes:
                restricted = restrict_to_maximal(op, members)
                f = gen.random_rational_function(rng, op.n)
                local = restricted.restrict_function_exact(f)
                global_iter = f
                for _ in range(4):
                    local = restricted.operator.apply_exact(local)
                    global_iter = op.apply_exact(global_iter)
                    clipped = tuple(global_iter[i] for i in restricted.members)
                    assert local == clipped
                checked += 1


class TestRestrictToNonabs:
    def test_running_gives_maximum_operator(self, running_op):
        part = partition_states(running_op)
        restricted = gen.restrict_to_nonabs(running_op, part)
        assert restricted.labels == ("d", "e")
        assert restricted.operator.apply_exact((F(1), F(4))) == (F(4), F(4))

    def test_counterexample_gives_swap(self, counterexample_op):
        part = partition_states(counterexample_op)
        restricted = gen.restrict_to_nonabs(counterexample_op, part)
        g = (F(2), F(9))
        assert restricted.operator.apply_exact(g) == (F(9), F(2))

    def test_precise_operator_has_nothing_to_restrict(self):
        rng = random.Random(54)
        op = gen.random_operator(rng, max_pmfs=1)
        part = partition_states(op)
        if not part.unabsorbed_transients:
            with pytest.raises(PreconditionError):
                gen.restrict_to_nonabs(op, part)

    def test_always_well_defined_on_random_instances(self):
        rng = random.Random(55)
        tried = 0
        for _ in range(400):
            op = gen.random_operator(rng)
            part = partition_states(op)
            if not part.unabsorbed_transients:
                continue
            tried += 1
            restricted = gen.restrict_to_nonabs(op, part)  # must never raise
            assert restricted.operator.n == len(part.unabsorbed_transients)
        assert tried > 20


class TestNestedRestriction:
    def test_two_cuts_equal_one_cut(self, running_op):
        assert gen.nested_restriction_check(running_op, {3, 4}, {3})

    def test_equal_classes_trivial(self, running_op):
        assert gen.nested_restriction_check(running_op, {3, 4}, {3, 4})

    def test_inner_must_be_contained(self, running_op):
        with pytest.raises(PreconditionError):
            gen.nested_restriction_check(running_op, {3, 4}, {2, 3})

    def test_random_nested_pairs(self):
        rng = random.Random(56)
        hits = 0
        while hits < 150:
            op = gen.random_operator(rng, n=rng.randint(2, 4))
            outer = gen.random_subset(rng, op.n)
            inner = frozenset(i for i in outer if rng.random() < 0.6)
            if not inner:
                continue
            try:
                restrict_family(op, outer)
                restrict_family(op, inner)
            except NotWellDefinedError:
                continue
            hits += 1
            assert gen.nested_restriction_check(op, outer, inner)


class TestRoundTrip:
    def test_restricted_family_serialises_like_a_model(self, running_op):
        from imclim import family_to_jsonable, parse_model

        restricted = restrict_family(running_op, {3, 4})
        payload = family_to_jsonable(restricted.operator.family)
        reparsed = parse_model(payload)
        assert isinstance(reparsed, CredalOperator)
        assert reparsed.family == restricted.operator.family
