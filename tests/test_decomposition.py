import functools
import logging
import random
from fractions import Fraction

import numpy as np
import pytest

import gen
from imclim import (
    CredalOperator,
    OrbitCheck,
    PreconditionError,
    StateSpace,
    SupportTable,
    UnsupportedOperatorError,
    UpperOperator,
    analyze,
    build_graph,
    communication_classes,
    decide_convergence,
    decompose,
    partition_states,
    search_cycle_witness,
)
from imclim.decomposition import (
    BASIS_CONDITION_FAILED,
    BASIS_FINITELY_GENERATED,
    BASIS_SUFFICIENT,
)

F = Fraction


def labelled(table, states):
    """Labels of the level-local indices ``states``, through the level table's own space."""
    return gen.labels_of(table.space, states)


class TestDecompose:
    def test_running_example_two_levels(self, running_op):
        dec = decompose(running_op)
        lab = functools.partial(gen.labels_of, running_op.space)
        assert dec.depth == 2
        level1, level2 = dec.maximal
        assert [lab(c.members) for c in level1] == [("a",), ("b",)]
        assert lab(gen.absorbed_at(dec, 1)) == ("c",)
        assert lab(gen.remaining_after(dec, 1)) == ("d", "e")
        assert [lab(c.members) for c in level2] == [("d", "e")]
        assert not gen.absorbed_at(dec, 2) and not gen.remaining_after(dec, 2)
        assert {lab(c.members): c.cyclicity for c in level2} == {("d", "e"): 1}
        _, table2, part2 = list(gen.level_partitions(running_op))[1]
        cyc = {labelled(table2, c.members): c.cyclicity for c in part2.classes}
        assert cyc == {("d", "e"): 1}
        assert dec.exits == (1, 1, 1, 2, 2)
        assert dec.rounds == (0, 0, 1, 0, 0)

    def test_identity_depth_one_all_regular(self, identity5_op):
        dec = decompose(identity5_op)
        assert dec.depth == 1
        assert len(dec.maximal[0]) == 5
        assert all(c.is_regular for c in dec.classes)
        assert dec.maximal[0] == dec.classes

    def test_counterexample_two_levels(self, counterexample_op):
        dec = decompose(counterexample_op)
        lab = functools.partial(gen.labels_of, counterexample_op.space)
        assert dec.depth == 2
        level1, level2 = dec.maximal
        assert [lab(c.members) for c in level1] == [("a",)]
        assert not gen.absorbed_at(dec, 1)
        assert lab(gen.remaining_after(dec, 1)) == ("b", "c")
        assert [lab(c.members) for c in level2] == [("b", "c")]
        assert level2[0].cyclicity == 2
        assert [lab(p) for p in level2[0].phases] == [("b",), ("c",)]

    def test_levels_partition_the_space(self):
        rng = random.Random(71)
        for _ in range(150):
            op = gen.random_operator(rng)
            dec = decompose(op)
            pieces = gen.partition_pieces(op)
            assert sum(len(p) for p in pieces) == op.n
            assert frozenset().union(*pieces) == frozenset(range(op.n))
            assert dec.depth <= op.n
            # the record holds the same pieces
            recorded = [c.members for level in dec.maximal for c in level]
            recorded += [gen.absorbed_at(dec, k) for k in range(1, dec.depth + 1)]
            assert sorted(map(sorted, filter(None, recorded))) == sorted(map(sorted, pieces))

    def test_levels_restrict_the_original_family(self, running_op):
        level2_states = gen.level_states(running_op)[1]
        assert level2_states == tuple(
            x for x, k in enumerate(decompose(running_op).exits) if k >= 2
        )
        direct = gen.restrict(running_op, level2_states).supports()
        cut = running_op.supports().restrict(level2_states)
        assert cut.supports == direct.supports
        assert build_graph(cut).successors == direct.successors

    def test_levels_speak_in_the_model_indices(self):
        # each level's partition uses the level's own indices, and
        # ``gen.level_partitions`` maps them to the model's; the record holds
        # every level in the model's indices, with labels from the model's space
        rng = random.Random(78)
        witnessed = 0
        for k in range(1000):
            if k % 2:
                op = gen.planted_cyclic_operator(rng)[0]
            else:
                op = gen.random_wide_operator(rng, rng.randint(5, 30))
            dec = decompose(op)
            levels = list(gen.level_partitions(op))
            assert dec.depth == len(levels)
            for j, (states, table, level) in enumerate(levels, start=1):
                graph = build_graph(table)
                assert level.classes == communication_classes(graph)
                assert graph.labels == table.space.labels
                assert table.space.labels == tuple(op.space.labels[i] for i in states)
                assert states == tuple(x for x, e in enumerate(dec.exits) if e >= j)
                assert [
                    (frozenset(states[i] for i in c.members), c.cyclicity,
                     tuple(frozenset(states[i] for i in p) for p in c.phases))
                    for c in level.classes
                    if c.is_maximal
                ] == [(c.members, c.cyclicity, c.phases) for c in dec.maximal[j - 1]]
            offenders = [
                (k, table, states, c)
                for k, (states, table, level) in enumerate(levels, start=1)
                for c in level.classes
                if c.is_maximal and not c.is_regular
            ]
            recorded = [
                (k, c) for k, level in enumerate(dec.maximal, start=1) for c in level
                if not c.is_regular
            ]
            witness = decide_convergence(op, dec).witness
            if not offenders:
                assert witness is None and not recorded
                continue
            witnessed += 1
            k, table, states, info = offenders[0]
            # the witness holds the record's first non-regular class itself
            assert witness.level == k == recorded[0][0]
            assert witness.info is recorded[0][1]
            # its labels through the level's own space and through the model's
            members = gen.labels_of(op.space, witness.info.members)
            phases = tuple(gen.labels_of(op.space, p) for p in witness.info.phases)
            assert members == labelled(table, info.members)
            assert phases == tuple(labelled(table, p) for p in info.phases)
            assert members == gen.labels_of(op.space, (states[i] for i in info.members))
            assert witness.info.cyclicity == info.cyclicity
        assert witnessed >= 500

    def test_each_level_logs_one_debug_line(self, running_op, caplog):
        # level, states, maximal classes, absorbed and remaining, as counts
        ops = [running_op, gen.staircase_operator(5)]
        rng = random.Random(1505)
        ops += [gen.planted_cyclic_operator(rng)[0] for _ in range(10)]
        for op in ops:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="imclim.decomposition"):
                dec = decompose(op)
            lines = [r.getMessage() for r in caplog.records if r.name == "imclim.decomposition"]
            assert len(lines) == dec.depth
            for k, line in enumerate(lines, start=1):
                states = sum(e >= k for e in dec.exits)
                absorbed = len(gen.absorbed_at(dec, k))
                remaining = len(gen.remaining_after(dec, k))
                assert states == sum(len(c.members) for c in dec.maximal[k - 1]) + \
                    absorbed + remaining
                assert line == (f"decomposition level {k}: {states} states, "
                                f"{len(dec.maximal[k - 1])} maximal classes, "
                                f"{absorbed} absorbed, {remaining} remaining")
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="imclim.decomposition"):
            decompose(running_op)
        assert not caplog.records

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
        assert analyze(running_op).to_dict()["verdicts"]["finitely_generated"] is True

    def test_counterexample_inconclusive_with_witness(self, counterexample_op):
        verdict = decide_convergence(counterexample_op, decompose(counterexample_op))
        assert verdict.convergent == "inconclusive"
        assert verdict.basis["convergent"] == BASIS_CONDITION_FAILED
        assert verdict.witness is not None
        assert verdict.witness.level == 2
        assert gen.labels_of(counterexample_op.space, verdict.witness.info.members) == ("b", "c")
        assert verdict.witness.info.cyclicity == 2
        assert verdict.notes

    def test_delayed_cycle_no(self, delayed_cycle_op):
        verdict = decide_convergence(delayed_cycle_op, decompose(delayed_cycle_op))
        assert verdict.convergent == "no"
        assert verdict.basis["convergent"] == BASIS_FINITELY_GENERATED
        assert verdict.witness.level == 2
        assert gen.labels_of(delayed_cycle_op.space, verdict.witness.info.members) == ("b", "c")
        # the verdict comes with a concrete alternating orbit
        check = gen.float_cycle_witness(delayed_cycle_op, {1, 2})
        assert check is not None and check.period == 2
        # and with the certificate read off the class's cyclic subclasses
        space = delayed_cycle_op.space
        phases = verdict.witness.info.phases
        assert tuple(gen.labels_of(space, p) for p in phases) == (("b",), ("c",))
        certificate = search_cycle_witness(space.labels, phases)
        assert certificate == OrbitCheck("cyclic-indicator:{b}", 2)
        assert not certificate.converged

    def test_level_one_witness_without_finite_generation(self):
        # Pins today's behaviour at the ROADMAP loose end "Prop 3 against the
        # convergence verdict": a swap that is not finitely generated fails
        # Theorem 1 at level 1.  By Proposition 3 as the README states it,
        # convergent_on_xm False already refutes convergence, yet the verdict
        # is "inconclusive", since Theorem 2 needs finite generation.
        class Swap(UpperOperator):
            _SPACE = StateSpace(("a", "b"))
            _TABLE = SupportTable(_SPACE, (((1,),), ((0,),)))

            @property
            def space(self):
                return self._SPACE

            def apply(self, f):
                return self._check_vector(f)[::-1].copy()

            def supports(self):
                return self._TABLE

        op = Swap()
        verdict = decide_convergence(op, decompose(op))
        assert verdict.convergent == "inconclusive"
        assert verdict.basis["convergent"] == BASIS_CONDITION_FAILED
        assert verdict.convergent_on_xm is False
        assert verdict.witness.level == 1 and verdict.witness.info.cyclicity == 2
        evidence = analyze(op, suite_random=0).orbit_evidence
        assert [c.period for c in evidence.checks] == [2, 2]
        assert evidence.agrees

    def test_ergodic_implies_convergent(self):
        rng = random.Random(72)
        for _ in range(200):
            op = gen.random_operator(rng)
            verdict = decide_convergence(op, decompose(op))
            if verdict.ergodic == "yes":
                assert verdict.convergent == "yes"
            if verdict.convergent == "no":
                assert op.is_finitely_generated
                assert verdict.witness is not None


class TestDecideErgodicity:
    def test_running_example_not_ergodic(self, running_op):
        assert decide_convergence(running_op, decompose(running_op)).ergodic == "no"

    def test_single_state_ergodic(self):
        op = gen.identity_operator(["only"])
        assert decide_convergence(op, decompose(op)).ergodic == "yes"

    def test_single_regular_class_with_absorbed_tail(self):
        sets = {
            "a": [{"a": F(1)}],
            "b": [{"a": F(1, 2), "b": F(1, 2)}],
            "c": [{"b": F(1)}],
        }
        op = gen.build(["a", "b", "c"], sets)
        assert decide_convergence(op, decompose(op)).ergodic == "yes"
        # numeric confirmation: orbits flatten to a constant
        from imclim import iterate_orbit

        result = iterate_orbit(op, np.array([0.0, 1.0, 0.3]))
        assert result.converged
        assert result.limit.max() - result.limit.min() <= 1e-8

    def test_two_cycle_not_ergodic(self, two_cycle_op):
        assert decide_convergence(two_cycle_op, decompose(two_cycle_op)).ergodic == "no"

    def test_matches_numeric_constant_limits(self):
        rng = random.Random(73)
        from imclim import OrbitParams, default_function_suite, iterate_orbit

        fast = OrbitParams(burn_in=20, max_iters=3000, max_period=16)
        agree = 0
        for _ in range(60):
            op = gen.random_operator(rng, n=rng.randint(1, 4))
            symbolic = decide_convergence(op, decompose(op)).ergodic == "yes"
            numeric = True
            for f in default_function_suite(op, 3, np.random.default_rng(1))[1].T:
                result = iterate_orbit(op, f, fast)
                if not result.converged or result.limit.max() - result.limit.min() > 1e-7:
                    numeric = False
                    break
            assert symbolic == numeric
            agree += 1
        assert agree == 60


class TestConvergenceOnMaximalStates:
    def test_running_true(self, running_op):
        assert decide_convergence(running_op, decompose(running_op)).convergent_on_xm is True

    def test_maximal_two_cycle_false(self, two_cycle_op):
        assert decide_convergence(two_cycle_op, decompose(two_cycle_op)).convergent_on_xm is False
        # the orbit of an indicator alternates on that class
        from imclim import iterate_orbit

        result = iterate_orbit(two_cycle_op, [1.0, 0.0])
        assert result.detected_period == 2

    def test_single_state_true(self):
        op = gen.identity_operator(["s"])
        assert decide_convergence(op, decompose(op)).convergent_on_xm is True

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
            assert decide_convergence(op, decompose(op)).convergent_on_xm == per_class_converged


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
                op = gen.build(labels, sets)
            else:
                op = gen.random_operator(rng)
            part = partition_states(op.supports())
            if gen.unabsorbed_transients(part):
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
        dec = decompose(op)
        if not decide_convergence(op, dec).convergent_on_xm:
            return False
        remaining = gen.remaining_after(dec, 1)
        if not remaining:
            return True
        sub = gen.restrict(op, sorted(remaining))
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
        op = gen.build(["x", "y"], sets)
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
