import random
from fractions import Fraction

import numpy as np
import pytest

import gen
from imclim import (
    CredalOperator,
    NotWellDefinedError,
    PreconditionError,
    build_graph,
    communication_classes,
    partition_states,
)

F = Fraction


def masses(op):
    return tuple(tuple(gen.dense(p, op.n) for p in sets) for sets in op.pmfs)


class TestRestrictFamily:
    def test_running_tail_pair(self, running_op):
        restricted = gen.restrict(running_op, [3, 4])
        assert restricted.space.labels == ("d", "e")
        point_d, point_e = (F(1), F(0)), (F(0), F(1))
        for sets in masses(restricted):
            assert set(sets) == {point_d, point_e}
        # with both point masses available the restriction maximises
        assert gen.apply_exact(restricted, (F(2), F(5))) == (F(5), F(5))

    def test_full_space_is_identity_transformation(self, running_op, counterexample_op):
        assert gen.restrict(running_op, range(5)) is running_op
        assert gen.restrict(counterexample_op, range(3)) is counterexample_op

    def test_counterexample_swap_pair(self, counterexample_op):
        restricted = gen.restrict(counterexample_op, [1, 2])
        assert restricted.space.labels == ("b", "c")
        assert masses(restricted) == (
            ((F(0), F(1)),),  # at b: point mass on c
            ((F(1), F(0)),),  # at c: point mass on b
        )

    def test_empty_restricted_set_names_state(self, counterexample_op):
        with pytest.raises(NotWellDefinedError, match="state 'b'"):
            gen.restrict(counterexample_op, [1])

    def test_restricted_pmfs_supported_and_normalised(self):
        rng = random.Random(51)
        hits = 0
        while hits < 150:
            op = gen.random_operator(rng)
            keep = sorted(gen.random_subset(rng, op.n, allow_full=False))
            try:
                restricted = gen.restrict(op, keep)
            except NotWellDefinedError:
                continue
            hits += 1
            for sets in restricted.pmfs:
                assert sets
                for p in sets:
                    assert sum(gen.dense(p, len(keep))) == 1
            # every kept pmf comes from a parent pmf supported inside the class
            for local_x, parent_x in enumerate(keep):
                kept = {gen.dense(p, len(keep)) for p in restricted.pmfs[local_x]}
                expected = {
                    tuple(gen.dense(p, op.n)[i] for i in keep)
                    for p in op.pmfs[parent_x]
                    if gen.support(p) <= frozenset(keep)
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
                restricted = gen.restrict(op, keep)
            except NotWellDefinedError:
                continue
            hits += 1
            f = gen.random_rational_function(rng, op.n)
            local = tuple(f[i] for i in keep)
            global_iter = f
            for _ in range(4):
                local = gen.apply_exact(restricted, local)
                global_iter = gen.apply_exact(op, global_iter)
                clipped = tuple(global_iter[i] for i in keep)
                assert all(a <= b for a, b in zip(local, clipped))


class TestRestrictToMaximal:
    def test_running_singletons(self, running_op):
        for index, label in ((0, "a"), (1, "b")):
            restricted = gen.restrict(running_op, [index])
            assert restricted.space.labels == (label,)
            assert gen.apply_exact(restricted, (F(7),)) == (F(7),)

    def test_rejects_non_maximal(self, running_op):
        with pytest.raises(PreconditionError, match="not a maximal"):
            gen.orbit_limit_on_regular_class(running_op, {2, 3, 4}, [0.0] * 5)

    def test_exact_commutation_on_maximal_classes(self):
        # on a maximal class, restricting then iterating equals iterating then
        # restricting, exactly
        rng = random.Random(53)
        checked = 0
        while checked < 120:
            op = gen.random_operator(rng, n=rng.randint(2, 4))
            part = partition_states(op.supports())
            for members in gen.maximal_classes(part):
                keep = sorted(members)
                restricted = gen.restrict(op, keep)
                f = gen.random_rational_function(rng, op.n)
                local = tuple(f[i] for i in keep)
                global_iter = f
                for _ in range(4):
                    local = gen.apply_exact(restricted, local)
                    global_iter = gen.apply_exact(op, global_iter)
                    clipped = tuple(global_iter[i] for i in keep)
                    assert local == clipped
                checked += 1


class TestMaximalClassPremise:
    """A maximal class's restriction has the structure its level already records."""

    @staticmethod
    def _check(op):
        checked = 0
        for states, table, level in gen.level_partitions(op):
            level_op = gen.restrict(op, states)
            parent_adjacency = build_graph(table).adjacency
            for info in level.classes:
                if not info.is_maximal:
                    continue
                local = sorted(info.members)
                sub_graph = build_graph(gen.restrict(level_op, local).supports())
                assert np.array_equal(
                    sub_graph.adjacency, parent_adjacency[np.ix_(local, local)]
                )
                sub_classes = communication_classes(sub_graph)
                assert len(sub_classes) == 1
                assert sub_classes[0].cyclicity == info.cyclicity
                checked += 1
        return checked

    def test_counterexample_levels(self, counterexample_op):
        assert self._check(counterexample_op) == 2

    def test_random_operators(self):
        rng = random.Random(57)
        checked = 0
        for _ in range(400):
            checked += self._check(gen.random_operator(rng))
        assert checked > 400


class TestRestrictToNonabs:
    def test_running_gives_maximum_operator(self, running_op):
        part = partition_states(running_op.supports())
        restricted = gen.restrict_to_nonabs(running_op, part)
        assert restricted.space.labels == ("d", "e")
        assert gen.apply_exact(restricted, (F(1), F(4))) == (F(4), F(4))

    def test_counterexample_gives_swap(self, counterexample_op):
        part = partition_states(counterexample_op.supports())
        restricted = gen.restrict_to_nonabs(counterexample_op, part)
        g = (F(2), F(9))
        assert gen.apply_exact(restricted, g) == (F(9), F(2))

    def test_precise_operator_has_nothing_to_restrict(self):
        rng = random.Random(54)
        op = gen.random_operator(rng, max_pmfs=1)
        part = partition_states(op.supports())
        if not gen.unabsorbed_transients(part):
            with pytest.raises(PreconditionError):
                gen.restrict_to_nonabs(op, part)

    def test_always_well_defined_on_random_instances(self):
        rng = random.Random(55)
        tried = 0
        for _ in range(400):
            op = gen.random_operator(rng)
            part = partition_states(op.supports())
            if not gen.unabsorbed_transients(part):
                continue
            tried += 1
            restricted = gen.restrict_to_nonabs(op, part)  # must never raise
            assert restricted.n == len(gen.unabsorbed_transients(part))
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
                gen.restrict(op, outer)
                gen.restrict(op, inner)
            except NotWellDefinedError:
                continue
            hits += 1
            assert gen.nested_restriction_check(op, outer, inner)


class TestRoundTrip:
    def test_restricted_family_serialises_like_a_model(self, running_op):
        from imclim import parse_model

        restricted = gen.restrict(running_op, [3, 4])
        reparsed = parse_model(gen.to_document(restricted))
        assert isinstance(reparsed, CredalOperator)
        assert (reparsed.space, reparsed.pmfs) == (restricted.space, restricted.pmfs)
