import random
from fractions import Fraction

import numpy as np
import pytest

import gen
from imclim import (
    CredalOperator,
    OrbitCheck,
    PreconditionError,
    UnsupportedOperatorError,
    UpperOperator,
    build_graph,
    communication_classes,
    decide_convergence,
    decide_convergence_on_xm,
    decide_ergodicity,
    decompose,
    partition_states,
    search_cycle_witness,
    validate_family,
)
from imclim.decomposition import (
    BASIS_CONDITION_FAILED,
    BASIS_FINITELY_GENERATED,
    BASIS_SUFFICIENT,
)

F = Fraction


def labelled(level, states):
    """Labels of the level-local indices ``states``, through the level's own space."""
    return level.partition.space.labels_of(states)


class TestDecompose:
    def test_running_example_two_levels(self, running_op):
        dec = decompose(running_op)
        assert dec.depth == 2
        level1, level2 = dec.levels
        part1, part2 = level1.partition, level2.partition
        assert [labelled(level1, m) for m in part1.maximal_classes] == [("a",), ("b",)]
        assert labelled(level1, part1.absorbed_transients) == ("c",)
        assert labelled(level1, part1.unabsorbed_transients) == ("d", "e")
        assert [labelled(level2, m) for m in part2.maximal_classes] == [("d", "e")]
        assert not part2.absorbed_transients and not part2.unabsorbed_transients
        cyc = {labelled(level2, c.members): c.cyclicity for c in level2.classes}
        assert cyc == {("d", "e"): 1}

    def test_identity_depth_one_all_regular(self, identity5_op):
        dec = decompose(identity5_op)
        assert dec.depth == 1
        level = dec.levels[0]
        assert len(level.partition.maximal_classes) == 5
        assert all(c.is_regular for c in level.classes)

    def test_counterexample_two_levels(self, counterexample_op):
        dec = decompose(counterexample_op)
        assert dec.depth == 2
        level1, level2 = dec.levels
        part1, part2 = level1.partition, level2.partition
        assert [labelled(level1, m) for m in part1.maximal_classes] == [("a",)]
        assert not part1.absorbed_transients
        assert labelled(level1, part1.unabsorbed_transients) == ("b", "c")
        assert [labelled(level2, m) for m in part2.maximal_classes] == [("b", "c")]
        level2_info = next(c for c in level2.classes if c.is_maximal)
        assert level2_info.cyclicity == 2

    def test_levels_partition_the_space(self):
        rng = random.Random(71)
        for _ in range(150):
            op = gen.random_operator(rng)
            dec = decompose(op)
            pieces = gen.partition_pieces(dec)
            assert sum(len(p) for p in pieces) == op.n
            assert frozenset().union(*pieces) == frozenset(range(op.n))
            assert dec.depth <= op.n

    def test_levels_restrict_the_original_family(self, running_op):
        dec = decompose(running_op)
        level2 = dec.levels[1]
        direct = gen.restrict(running_op, level2.states).supports()
        cut = running_op.supports().restrict(level2.states)
        assert np.array_equal(cut.rows, direct.rows)
        assert np.array_equal(cut.starts, direct.starts)
        assert np.array_equal(level2.graph.adjacency, direct.adjacency())

    def test_levels_speak_in_their_own_indices(self):
        # every field of a level uses the level's indices; ``states`` maps
        # them to the model's, and the level's space gives their labels
        rng = random.Random(78)
        witnessed = 0
        for k in range(1000):
            if k % 2:
                op = gen.planted_cyclic_operator(rng)[0]
            else:
                op = gen.random_wide_operator(rng, rng.randint(5, 30))
            dec = decompose(op)
            for level in dec.levels:
                space = level.partition.space
                assert level.classes == communication_classes(level.graph)
                assert level.graph.labels == space.labels
                assert space.labels == tuple(op.space.labels[i] for i in level.states)
            offenders = [
                (level, c) for level in dec.levels for c in level.classes
                if c.is_maximal and not c.is_regular
            ]
            witness = decide_convergence(op, dec).witness
            if not offenders:
                assert witness is None
                continue
            witnessed += 1
            level, info = offenders[0]
            space = level.partition.space
            assert witness.level == level.index
            assert witness.members == space.labels_of(info.members)
            assert witness.phases == tuple(space.labels_of(p) for p in info.phases)
            # the same labels through the model's indices
            assert witness.members == op.space.labels_of(level.states[i] for i in info.members)
        assert witnessed >= 500

    def test_operator_without_supports_is_refused(self, running_op):
        class NoSupports(UpperOperator):
            def __init__(self, inner):
                self._inner = inner

            @property
            def space(self):
                return self._inner.space

            def apply(self, f):
                return self._inner.apply(f)

        wrapped = NoSupports(running_op)
        with pytest.raises(UnsupportedOperatorError, match="declares no candidate supports"):
            decompose(wrapped)


class TestDecideConvergence:
    def test_running_example_yes(self, running_op):
        verdict = decide_convergence(running_op, decompose(running_op))
        assert verdict.convergent == "yes"
        assert verdict.basis["convergent"] == BASIS_SUFFICIENT
        assert verdict.witness is None
        assert verdict.ergodic == "no"
        assert verdict.convergent_on_xm is True
        assert verdict.finitely_generated

    def test_counterexample_inconclusive_with_witness(self, counterexample_op):
        verdict = decide_convergence(counterexample_op, decompose(counterexample_op))
        assert verdict.convergent == "inconclusive"
        assert verdict.basis["convergent"] == BASIS_CONDITION_FAILED
        assert verdict.witness is not None
        assert verdict.witness.level == 2
        assert verdict.witness.members == ("b", "c")
        assert verdict.witness.cyclicity == 2
        assert verdict.notes

    def test_delayed_cycle_no(self, delayed_cycle_op):
        verdict = decide_convergence(delayed_cycle_op, decompose(delayed_cycle_op))
        assert verdict.convergent == "no"
        assert verdict.basis["convergent"] == BASIS_FINITELY_GENERATED
        assert verdict.witness.level == 2
        assert verdict.witness.members == ("b", "c")
        # the verdict comes with a concrete alternating orbit
        check = gen.float_cycle_witness(delayed_cycle_op, {1, 2})
        assert check is not None and check.period == 2
        # and with the certificate read off the class's cyclic subclasses
        assert verdict.witness.phases == (("b",), ("c",))
        certificate = search_cycle_witness(verdict.witness.phases)
        assert certificate == OrbitCheck("cyclic-indicator:{b}", 2, False)

    def test_ergodic_implies_convergent(self):
        rng = random.Random(72)
        for _ in range(200):
            op = gen.random_operator(rng)
            verdict = decide_convergence(op, decompose(op))
            if verdict.ergodic == "yes":
                assert verdict.convergent == "yes"
            if verdict.convergent == "no":
                assert verdict.finitely_generated
                assert verdict.witness is not None


class TestDecideErgodicity:
    def test_running_example_not_ergodic(self, running_op):
        classes = communication_classes(build_graph(running_op.supports()))
        part = partition_states(running_op.supports(), classes)
        assert decide_ergodicity(part, classes) == "no"

    def test_single_state_ergodic(self):
        op = gen.identity_operator(["only"])
        classes = communication_classes(build_graph(op.supports()))
        part = partition_states(op.supports(), classes)
        assert decide_ergodicity(part, classes) == "yes"

    def test_single_regular_class_with_absorbed_tail(self):
        sets = {
            "a": [{"a": F(1)}],
            "b": [{"a": F(1, 2), "b": F(1, 2)}],
            "c": [{"b": F(1)}],
        }
        op = CredalOperator(validate_family(["a", "b", "c"], sets))
        classes = communication_classes(build_graph(op.supports()))
        part = partition_states(op.supports(), classes)
        assert decide_ergodicity(part, classes) == "yes"
        # numeric confirmation: orbits flatten to a constant
        from imclim import iterate_orbit

        result = iterate_orbit(op, np.array([0.0, 1.0, 0.3]))
        assert result.converged
        assert result.limit.max() - result.limit.min() <= 1e-8

    def test_two_cycle_not_ergodic(self, two_cycle_op):
        classes = communication_classes(build_graph(two_cycle_op.supports()))
        part = partition_states(two_cycle_op.supports(), classes)
        assert decide_ergodicity(part, classes) == "no"

    def test_matches_numeric_constant_limits(self):
        rng = random.Random(73)
        from imclim import OrbitParams, default_function_suite, iterate_orbit

        fast = OrbitParams(burn_in=20, max_iters=3000, max_period=16)
        agree = 0
        for _ in range(60):
            op = gen.random_operator(rng, n=rng.randint(1, 4))
            classes = communication_classes(build_graph(op.supports()))
            part = partition_states(op.supports(), classes)
            symbolic = decide_ergodicity(part, classes) == "yes"
            numeric = True
            for _, f in default_function_suite(op, extra=3, rng=np.random.default_rng(1)):
                result = iterate_orbit(op, f, fast)
                if not result.converged or result.limit.max() - result.limit.min() > 1e-7:
                    numeric = False
                    break
            assert symbolic == numeric
            agree += 1
        assert agree == 60


class TestConvergenceOnMaximalStates:
    def test_running_true(self, running_op):
        classes = communication_classes(build_graph(running_op.supports()))
        assert decide_convergence_on_xm(classes) is True

    def test_maximal_two_cycle_false(self, two_cycle_op):
        classes = communication_classes(build_graph(two_cycle_op.supports()))
        assert decide_convergence_on_xm(classes) is False
        # the orbit of an indicator alternates on that class
        from imclim import iterate_orbit

        result = iterate_orbit(two_cycle_op, [1.0, 0.0])
        assert result.detected_period == 2

    def test_single_state_true(self):
        op = gen.identity_operator(["s"])
        classes = communication_classes(build_graph(op.supports()))
        assert decide_convergence_on_xm(classes) is True

    def test_matches_per_class_orbit_behaviour(self):
        rng = random.Random(74)
        from imclim import OrbitParams, iterate_orbit

        fast = OrbitParams(burn_in=20, max_iters=3000, max_period=16)
        for _ in range(80):
            op = gen.random_operator(rng, n=rng.randint(2, 4))
            classes = communication_classes(build_graph(op.supports()))
            per_class_converged = True
            for info in classes:
                if not info.is_maximal:
                    continue
                sub = gen.restrict(op, sorted(info.members))
                f = np.zeros(sub.n)
                f[0] = 1.0
                result = iterate_orbit(sub, f, fast)
                if not result.converged:
                    per_class_converged = False
            assert decide_convergence_on_xm(classes) == per_class_converged


class TestAbsorbedCases:
    def test_no_unabsorbed_states_makes_the_condition_two_sided(self):
        # with nothing left unabsorbed, convergence holds iff every maximal
        # class is regular, for any finitely generated operator
        rng = random.Random(76)
        checked = 0
        while checked < 200:
            if checked % 4 == 0:
                # deterministic pure cycle: everything maximal, nothing
                # unabsorbed, cyclicity n
                n = rng.randint(2, 5)
                labels = [f"s{i}" for i in range(n)]
                sets = {labels[i]: [{labels[(i + 1) % n]: F(1)}] for i in range(n)}
                op = CredalOperator(validate_family(labels, sets))
            else:
                op = gen.random_operator(rng)
            part = partition_states(op.supports())
            if part.unabsorbed_transients:
                continue
            classes = communication_classes(build_graph(op.supports()))
            verdict = decide_convergence(op, decompose(op))
            all_regular = all(
                c.cyclicity == 1 for c in classes if c.is_maximal
            )
            assert (verdict.convergent == "yes") == all_regular
            checked += 1

    def test_closed_absorbing_class_carries_full_convergence(self):
        # convergence of orbits restricted to a closed absorbing class goes
        # hand in hand with convergence of the full orbits, function by function
        rng = random.Random(77)
        from imclim import OrbitParams, iterate_orbit

        fast = OrbitParams(burn_in=20, max_iters=4000, max_period=16)
        checked = 0
        while checked < 60:
            op = gen.random_operator(rng, n=rng.randint(2, 4))
            targets = [
                s
                for s in gen.closed_subsets(op)
                if len(s) < op.n and gen.is_absorbing(op, s)
            ]
            if not targets:
                continue
            members = targets[0]
            keep = sorted(members)
            restricted = gen.restrict(op, keep)
            f = np.array([rng.random() for _ in range(op.n)])
            full = iterate_orbit(op, f, fast)
            local = iterate_orbit(restricted, f[keep], fast)
            assert full.converged == local.converged
            checked += 1


class TestTheoremRouteEquivalence:
    @staticmethod
    def _recursive_route(op: CredalOperator) -> bool:
        # maximal classes regular, then recurse on the unabsorbed remainder
        classes = communication_classes(build_graph(op.supports()))
        if not decide_convergence_on_xm(classes):
            return False
        part = partition_states(op.supports(), classes)
        if not part.unabsorbed_transients:
            return True
        sub = gen.restrict(op, sorted(part.unabsorbed_transients))
        return TestTheoremRouteEquivalence._recursive_route(sub)

    def test_flat_and_recursive_routes_agree(self):
        rng = random.Random(75)
        for _ in range(250):
            op = gen.random_operator(rng)
            verdict = decide_convergence(op, decompose(op))
            assert (verdict.convergent == "yes") == self._recursive_route(op)


class TestSingleClassReport:
    def test_two_cycle_not_regular(self, two_cycle_op):
        report = gen.single_class_equivalence_report(two_cycle_op)
        assert report.cyclicity == 2
        assert not report.regular and not report.convergent and not report.ergodic
        assert report.limit_bound is None

    def test_complete_family_regular_and_ergodic(self):
        sets = {
            "x": [{"x": F(1, 2), "y": F(1, 2)}],
            "y": [{"x": F(1, 2), "y": F(1, 2)}, {"y": F(1)}],
        }
        op = CredalOperator(validate_family(["x", "y"], sets))
        report = gen.single_class_equivalence_report(op, [0.0, 1.0])
        assert report.regular and report.convergent and report.ergodic
        assert report.limit_bound is not None
        assert report.limit_bound.dominates
        assert report.limit_bound.strict is True

    def test_single_state_trivially_regular(self):
        op = gen.identity_operator(["s"])
        report = gen.single_class_equivalence_report(op)
        assert report.regular and report.ergodic
        assert report.limit_bound is not None
        assert report.limit_bound.strict is None  # constant start on one state

    def test_rejects_multiple_classes(self, running_op):
        with pytest.raises(PreconditionError):
            gen.single_class_equivalence_report(running_op)
