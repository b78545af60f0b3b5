"""The support-tuple structure against the numpy boolean table it replaced, and its cost.

``gen.DenseTable`` keeps the boolean-row code: the ``reduceat`` adjacency,
the ``lower_positive`` fixpoint with its growing sets and the mask
``restrict``.  Every level of a decomposition is checked against it, cut by
cut: the graph of the level's cut, its classes against
``gen.reference_classes``, which needs no depth-first search, and the
partition's views against the closed classes and the dense fixpoint.
"""

import random
import sys
import time
import tracemalloc

import numpy as np

import gen
from imclim import analyze, build_graph, decompose


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
            table, dense = op.supports(), gen.dense_table(op.supports())
            for above, level in zip((None,) + dec.levels, dec.levels):
                if above is not None:
                    local = sorted(above.unabsorbed_transients)
                    table, dense = table.restrict(local), dense.restrict(local)
                cut = gen.dense_table(table)
                assert np.array_equal(cut.starts, dense.starts)
                assert np.array_equal(cut.rows, dense.rows)
                adjacency = dense.adjacency()
                xs, ys = np.nonzero(adjacency)
                edges = tuple(zip(xs.tolist(), ys.tolist()))
                assert build_graph(table).edges() == edges
                if above is None:
                    assert dec.graph.edges() == edges
                reference = gen.reference_classes(adjacency)
                assert [
                    (c.members, c.is_closed, c.cyclicity, c.phases) for c in level.classes
                ] == reference
                closed = [members for members, is_closed, _, _ in reference if is_closed]
                assert gen.maximal_classes(level) == tuple(closed)
                assert level.maximal_states == frozenset().union(*closed)
                sequence = dense.lower_reach(level.maximal_states)
                assert level.reach_sequence == sequence
                assert level.rounds == expected_rounds(len(table.space), sequence)
                assert level.absorbed_transients == sequence[-1] - level.maximal_states
                everything = frozenset(range(len(table.space)))
                assert level.unabsorbed_transients == everything - sequence[-1]
                levels += 1
                deep += len(sequence) > 3
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
        assert report.decomposition.levels[0].rounds[-1] == 1999
        assert held < 10 * 2**20, held

    def test_a_long_chain_is_linear(self):
        op = gen.chain_operator(10_000)
        start = time.perf_counter()
        report = analyze(op)
        elapsed = time.perf_counter() - start
        assert report.verdict.convergent == "yes"
        assert max(report.decomposition.levels[0].rounds) == 9999
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

    def test_only_the_model_space_maps_labels_to_indices(self):
        # parse_model builds the model space's label index; the levels' spaces,
        # never asked for an index, build none
        op = gen.staircase_operator(20)  # read by parse_model
        dec = decompose(op)
        assert dec.depth == 20
        assert "_pos" in vars(op.space) and dec.levels[0].space is op.space
        assert not any("_pos" in vars(level.space) for level in dec.levels[1:])
