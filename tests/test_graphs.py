import random
from collections import Counter

import numpy as np
import pytest

import gen
from imclim import (
    PreconditionError,
    UnsupportedOperatorError,
    UpperOperator,
    build_graph,
    communication_classes,
    to_dot,
)
from imclim.operators import StateSpace


def edge_labels(graph):
    return sorted((graph.labels[x], graph.labels[y]) for x, y in graph.edges())


RUNNING_EDGES = sorted(
    [("a", "a"), ("b", "b"), ("d", "d"), ("e", "e"),
     ("c", "a"), ("c", "b"), ("c", "d"), ("c", "e"),
     ("d", "c"), ("d", "e"), ("e", "c"), ("e", "d")]
)

COUNTEREXAMPLE_EDGES = sorted(
    [("a", "a"), ("b", "a"), ("b", "b"), ("b", "c"), ("c", "a"), ("c", "b")]
)


class TestBuildGraph:
    def test_running_example_edges(self, running_op):
        assert edge_labels(build_graph(running_op.supports())) == RUNNING_EDGES

    def test_identity_self_loops_only(self, identity5_op):
        graph = build_graph(identity5_op.supports())
        assert edge_labels(graph) == [(l, l) for l in sorted(graph.labels)]

    def test_counterexample_edges(self, counterexample_op):
        # note: no self-loop at c
        assert edge_labels(build_graph(counterexample_op.supports())) == COUNTEREXAMPLE_EDGES

    def test_matches_brute_force_positivity(self):
        rng = random.Random(31)
        for _ in range(100):
            op = gen.random_operator(rng)
            graph = build_graph(op.supports())
            for x in range(op.n):
                for y in range(op.n):
                    expected = any(gen.dense(p, op.n)[y] > 0 for p in op.pmfs[x])
                    assert bool(graph.adjacency[x, y]) == expected

    def test_refuses_float_only_operator(self):
        class FloatOnly(UpperOperator):
            @property
            def space(self):
                return StateSpace(("x", "y"))

            def apply(self, f):
                g = self._check_vector(f)
                return np.full(2, g.max())

        with pytest.raises(UnsupportedOperatorError):
            build_graph(FloatOnly().supports())


class TestCommunicationClasses:
    def test_running_example(self, running_op):
        classes = communication_classes(build_graph(running_op.supports()))
        by_members = {
            gen.labels_of(running_op.space, c.members): c for c in classes
        }
        assert set(by_members) == {("a",), ("b",), ("c", "d", "e")}
        assert by_members[("a",)].is_maximal and by_members[("b",)].is_maximal
        assert not by_members[("c", "d", "e")].is_maximal
        assert by_members[("c", "d", "e")].cyclicity == 1

    def test_identity_all_singletons_maximal(self, identity5_op):
        classes = communication_classes(build_graph(identity5_op.supports()))
        assert len(classes) == 5
        assert all(len(c.members) == 1 and c.is_maximal and c.is_regular for c in classes)

    def test_counterexample_classes(self, counterexample_op):
        # b and c communicate (b -> c and c -> b), so the classes are {a} and {b, c}
        classes = communication_classes(build_graph(counterexample_op.supports()))
        members = {gen.labels_of(counterexample_op.space, c.members) for c in classes}
        assert members == {("a",), ("b", "c")}
        maximal = [c for c in classes if c.is_maximal]
        assert len(maximal) == 1
        assert gen.labels_of(counterexample_op.space, maximal[0].members) == ("a",)

    def test_classes_partition_and_maximal_iff_closed(self):
        rng = random.Random(32)
        for _ in range(150):
            op = gen.random_operator(rng)
            classes = communication_classes(build_graph(op.supports()))
            seen = sorted(i for c in classes for i in c.members)
            assert seen == list(range(op.n))
            for c in classes:
                assert c.is_maximal == c.is_closed
                assert c.is_closed == gen.is_closed(op, c.members)
                if c.is_regular:
                    assert c.is_maximal

    def test_closed_subsets_are_unions_of_classes(self):
        rng = random.Random(33)
        for _ in range(60):
            op = gen.random_operator(rng, n=rng.randint(2, 5))
            classes = communication_classes(build_graph(op.supports()))
            for subset in gen.closed_subsets(op):
                covered = frozenset()
                for c in classes:
                    if c.members & subset:
                        assert c.members <= subset
                        covered |= c.members
                assert covered == subset


class TestClosed:
    def test_running_closed_subsets_exact(self, running_op):
        subsets = {gen.labels_of(running_op.space, s) for s in gen.closed_subsets(running_op)}
        assert subsets == {("a",), ("b",), ("a", "b"), ("a", "b", "c", "d", "e")}

    def test_full_space_closed(self, running_op):
        assert gen.is_closed(running_op, range(5))

    def test_transient_class_not_closed(self, running_op):
        assert not gen.is_closed(running_op, {2, 3, 4})


class TestCyclicity:
    def test_self_loop_singleton(self, running_op):
        assert gen.cyclicity(build_graph(running_op.supports()), {0}) == 1

    def test_two_cycle(self, two_cycle_op):
        assert gen.cyclicity(build_graph(two_cycle_op.supports()), {0, 1}) == 2

    def test_three_cycle_with_self_loop(self):
        adjacency = np.zeros((3, 3), dtype=bool)
        adjacency[0, 1] = adjacency[1, 2] = adjacency[2, 0] = True
        adjacency[0, 0] = True
        graph = gen.graph_from_adjacency(("x", "y", "z"), adjacency)
        assert gen.cyclicity(graph, {0, 1, 2}) == 1

    def test_pure_three_cycle(self):
        adjacency = np.zeros((3, 3), dtype=bool)
        adjacency[0, 1] = adjacency[1, 2] = adjacency[2, 0] = True
        graph = gen.graph_from_adjacency(("x", "y", "z"), adjacency)
        assert gen.cyclicity(graph, {0, 1, 2}) == 3

    def test_singleton_without_loop_is_undefined(self, counterexample_op):
        adjacency = np.zeros((1, 1), dtype=bool)
        graph = gen.graph_from_adjacency(("x",), adjacency)
        assert gen.cyclicity(graph, {0}) is None

    def test_not_strongly_connected_rejected(self, running_op):
        with pytest.raises(PreconditionError):
            gen.cyclicity(build_graph(running_op.supports()), {0, 1})

    def test_matches_closed_walk_reference(self):
        rng = random.Random(35)
        periods, transient, loopless = Counter(), 0, 0
        for _ in range(2000):
            graph = gen.random_phased_digraph(rng)
            for c in communication_classes(graph):
                expected = gen.closed_walk_period(graph, c.members)
                assert c.cyclicity == expected
                assert gen.cyclicity(graph, c.members) == expected
                others = sorted(set(range(graph.n)) - c.members)
                members = sorted(c.members)
                assert c.is_closed == (not graph.adjacency[np.ix_(members, others)].any())
                periods[expected] += 1
                transient += not c.is_closed
                loopless += expected is None
        # the draws reach every case the one-pass gcd has to get right
        assert {None, 1, 2, 3, 4, 5} <= set(periods)
        assert transient and loopless

    def test_one_tarjan_pass_per_call(self, running_op, monkeypatch):
        import imclim.graphs

        calls = []
        tarjan = imclim.graphs._strongly_connected_components

        def counted(successors):
            calls.append(len(successors))
            return tarjan(successors)

        monkeypatch.setattr(imclim.graphs, "_strongly_connected_components", counted)
        classes = communication_classes(build_graph(running_op.supports()))
        assert len(classes) == 3 and len(calls) == 1
        calls.clear()
        assert gen.cyclicity(build_graph(running_op.supports()), {2, 3, 4}) == 1
        assert len(calls) == 1


class TestRegularityOracle:
    def test_self_loop_true(self, running_op):
        assert gen.regularity_oracle(build_graph(running_op.supports()), {0})

    def test_two_cycle_false(self, two_cycle_op):
        assert not gen.regularity_oracle(build_graph(two_cycle_op.supports()), {0, 1})

    def test_two_nodes_complete_true(self, running_op):
        # induced block on {d, e}: self-loops plus both cross edges
        assert gen.regularity_oracle(build_graph(running_op.supports()), {3, 4})

    def test_matches_gcd_route(self):
        rng = random.Random(34)
        for _ in range(300):
            graph = gen.random_scc_graph(rng)
            members = range(graph.n)
            cyc = gen.cyclicity(graph, members)
            assert (cyc == 1) == gen.regularity_oracle(graph, members)


class TestDot:
    def test_deterministic_and_clustered(self, running_op):
        graph = build_graph(running_op.supports())
        text = to_dot(graph)
        assert text == to_dot(graph)
        assert text.startswith("digraph access {")
        assert '"c" -> "a";' in text
        assert text.count("subgraph cluster_") == 3
        assert text.count("(maximal)") == 2

    def test_quotes_and_backslashes_escaped(self):
        adjacency = np.array([[False, True], [True, False]])
        graph = gen.graph_from_adjacency(('a"b', "c\\"), adjacency)
        text = to_dot(graph)
        assert '  "a\\"b" -> "c\\\\";' in text
        assert '    label="{a\\"b, c\\\\} (maximal)";' in text
        assert '    "a\\"b";' in text and '    "c\\\\";' in text

    def test_one_cluster_per_singleton_class(self, identity5_op):
        graph = build_graph(identity5_op.supports())
        text = to_dot(graph)
        assert '"a" -> "a";' in text
        assert text.count("subgraph cluster_") == text.count("(maximal)") == 5
