"""The support-tuple structure against the numpy boolean table it replaced, and its cost.

``gen.DenseTable`` keeps the boolean-row code: the ``reduceat`` adjacency,
the ``lower_positive`` fixpoint with its growing sets and the mask
``restrict``.  Every level of a decomposition is checked against it, cut by
cut: the graph of the level's cut, its classes against
``gen.reference_classes``, which needs no depth-first search, the
partition's rounds against the closed classes and the dense fixpoint, and
the decomposition's record against the level folded into the model's
indices.
"""

import random
import sys
import time
import tracemalloc

import numpy as np

import gen
from imclim import (
    AccessGraph,
    StatePartition,
    StateSpace,
    analyze,
    build_graph,
    decompose,
    partition_states,
)
import imclim.decomposition


def expected_rounds(n: int, sequence) -> tuple:
    rounds = [None] * n
    for k, reach in reversed(list(enumerate(sequence))):
        for x in reach:
            rounds[x] = k
    return tuple(rounds)


class TestAgainstTheBooleanTable:
    def test_every_level_of_seeded_families(self):
        levels = deep = 0
        for op in gen.seeded_families(2000):
            dec = decompose(op)
            dense = gen.dense_table(op.supports())
            above = None
            for k, (states, table, level) in enumerate(gen.level_partitions(op), start=1):
                if above is not None:
                    dense = dense.restrict(sorted(gen.unabsorbed_transients(above)))
                cut = gen.dense_table(table)
                assert np.array_equal(cut.starts, dense.starts)
                assert np.array_equal(cut.rows, dense.rows)
                adjacency = dense.adjacency()
                xs, ys = np.nonzero(adjacency)
                edges = tuple(zip(xs.tolist(), ys.tolist()))
                assert build_graph(table).edges() == edges
                if above is None:
                    assert dec.graph.edges() == edges
                    assert dec.classes == level.classes
                reference = gen.reference_classes(adjacency)
                assert [
                    (c.members, c.is_closed, c.cyclicity, c.phases) for c in level.classes
                ] == reference
                closed = [members for members, is_closed, _, _ in reference if is_closed]
                assert gen.maximal_classes(level) == tuple(closed)
                assert gen.maximal_states(level) == frozenset().union(*closed)
                sequence = dense.lower_reach(gen.maximal_states(level))
                assert level.reach_sequence == sequence
                assert level.rounds == expected_rounds(len(table.space), sequence)
                assert gen.absorbed_transients(level) == sequence[-1] - gen.maximal_states(level)
                everything = frozenset(range(len(table.space)))
                assert gen.unabsorbed_transients(level) == everything - sequence[-1]
                # the record folds the level into the model's indices
                assert [
                    (frozenset(states[i] for i in c.members), c.is_closed, c.cyclicity,
                     tuple(frozenset(states[i] for i in p) for p in c.phases))
                    for c in level.classes
                    if c.is_maximal
                ] == [(c.members, c.is_closed, c.cyclicity, c.phases) for c in dec.maximal[k - 1]]
                for x, r in zip(states, level.rounds):
                    if r is None:
                        assert dec.exits[x] > k
                    else:
                        assert (dec.exits[x], dec.rounds[x]) == (k, r)
                above = level
                levels += 1
                deep += len(sequence) > 3
            assert dec.depth == k
        assert levels > 4000 and deep > 400, (levels, deep)


class TestCost:
    def test_a_chain_analysis_holds_little_memory(self):
        # the reach sets of a 2,000-state chain hold about 2,000,000 entries;
        # the partition keeps one round per state
        op = gen.chain_operator(2000)
        tracemalloc.start()
        try:
            report = analyze(op)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.decomposition.rounds[-1] == 1999
        assert held < 10 * 2**20, held

    def test_a_staircase_analysis_holds_little_memory(self):
        # a 250-state staircase has 250 levels; the decomposition keeps one
        # exit level and one round per state and each level's maximal classes,
        # not each level's space, classes and rounds
        op = gen.staircase_operator(250)
        tracemalloc.start()
        try:
            report = analyze(op)
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.decomposition.depth == 250
        assert held < 2 * 2**20, held

    def test_a_long_chain_is_linear(self):
        op = gen.chain_operator(10_000)
        start = time.perf_counter()
        report = analyze(op)
        elapsed = time.perf_counter() - start
        assert report.verdict.convergent == "yes"
        assert max(report.decomposition.rounds) == 9999
        assert elapsed < 5.0, elapsed

    def test_the_structure_makes_no_numpy_call(self, running_op):
        ops = [running_op, gen.chain_operator(30), gen.staircase_operator(12)]
        ops += [op for op, _, _ in (gen.planted_cyclic_operator(random.Random(k)) for k in range(5))]
        calls = []

        def profile(frame, event, arg):
            if event == "call" and "numpy" in frame.f_code.co_filename:
                calls.append(frame.f_code.co_name)
            elif event == "c_call" and (getattr(arg, "__module__", None) or "").startswith("numpy"):
                calls.append(arg.__name__)

        sys.setprofile(profile)
        try:
            for op in ops:
                decompose(op)
        finally:
            sys.setprofile(None)
        assert calls == []

    def test_only_the_model_space_maps_labels_to_indices(self, monkeypatch):
        # parse_model builds the model space's label index; the levels' spaces,
        # never asked for an index, build none, and the decomposition keeps
        # none of them
        op = gen.staircase_operator(20)  # read by parse_model
        tables, built = [], []

        def recording(table):
            tables.append(table)
            built.append(partition_states(table))
            return built[-1]

        monkeypatch.setattr(imclim.decomposition, "partition_states", recording)
        dec = decompose(op)
        assert dec.depth == len(built) == 20
        assert "positions" in vars(op.space) and tables[0].space is op.space
        assert not any("positions" in vars(table.space) for table in tables[1:])
        assert dec.graph.labels is op.space.labels
        kept = [dec.graph, *dec.classes, *(c for level in dec.maximal for c in level)]
        assert not any(isinstance(v, (StateSpace, StatePartition)) for v in kept)
        assert [type(v) for v in vars(dec).values()] == [AccessGraph, tuple, tuple, tuple, tuple]
