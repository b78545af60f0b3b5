import random
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

import gen
from imclim import (
    CounterexampleOperator,
    DimensionMismatchError,
    ModelValidationError,
    NotWellDefinedError,
    StateSpace,
    build_graph,
    parse_model,
)
from gen import lower_reach_set

F = Fraction


def ind(n, *targets):
    return tuple(F(int(i in targets)) for i in range(n))


class TestEvaluation:
    def test_upper_on_pair_indicator(self, running_op):
        got = gen.apply_exact(running_op, ind(5, 0, 1))
        assert got == (F(1), F(1), F(1, 2), F(0), F(0))

    def test_constant_is_fixed(self):
        rng = random.Random(7)
        for _ in range(25):
            op = gen.random_operator(rng)
            mu = F(rng.randint(-5, 5), rng.randint(1, 4))
            assert gen.apply_exact(op, (mu,) * op.n) == (mu,) * op.n

    def test_identity_operator_fixes_everything(self):
        op = gen.identity_operator(["x", "y", "z"])
        f = (F(3, 7), F(-1), F(2))
        assert gen.apply_exact(op, f) == f
        assert np.allclose(op.apply([0.3, -1.0, 2.0]), [0.3, -1.0, 2.0])

    def test_float_path_matches_exact(self, running_op):
        rng = random.Random(3)
        for k in range(350):
            op = running_op if k < 50 else gen.random_operator(
                rng, n=rng.randint(1, 7), max_pmfs=rng.randint(1, 4)
            )
            f = gen.random_rational_function(rng, op.n)
            exact = gen.apply_exact(op, f)
            approx = op.apply([float(x) for x in f])
            assert np.allclose(approx, [float(v) for v in exact], atol=1e-12)

    def test_dimension_mismatch(self, running_op):
        with pytest.raises(DimensionMismatchError):
            running_op.apply([1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            gen.apply_exact(running_op, (F(1),))


class TestLower:
    def test_lower_identity(self):
        op = gen.identity_operator(["x", "y"])
        f = (F(1, 3), F(5))
        assert gen.apply_lower_exact(op, f) == f

    def test_lower_single_indicator(self, running_op):
        got = gen.lower_indicator(running_op, 0)
        assert got[2] == F(1, 4)
        assert got == (F(1), F(0), F(1, 4), F(0), F(0))

    def test_counterexample_lower_indicator_is_fixed(self, counterexample_op):
        assert gen.lower_indicator(counterexample_op, 0) == ind(3, 0)

    def test_lower_matches_direct_minimum(self):
        # conjugate route vs direct per-state minimum expectation
        rng = random.Random(11)
        for _ in range(200):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            assert gen.apply_lower_exact(op, f) == gen.lower_direct(op, f)


class TestIndicators:
    def test_running_indicator_row(self, running_op):
        assert gen.upper_indicator(running_op, 2) == (F(0), F(0), F(0), F(1), F(1))

    def test_identity_indicator(self):
        op = gen.identity_operator(["x", "y", "z"])
        for i in range(3):
            assert gen.upper_indicator(op, i) == ind(3, i)

    def test_counterexample_indicator_b(self, counterexample_op):
        assert gen.upper_indicator(counterexample_op, 1) == (F(0), F(1, 2), F(1))

    def test_invalid_state_index(self, running_op):
        with pytest.raises(ModelValidationError):
            gen.upper_indicator(running_op, 9)


class TestCounterexampleClosedForm:
    def test_weight_on_last_state(self, counterexample_op):
        assert gen.apply_exact(counterexample_op, (0, 0, 1)) == (F(0), F(1), F(0))

    def test_constants_preserved(self, counterexample_op):
        assert gen.apply_exact(counterexample_op, (1, 1, 1)) == (F(1), F(1), F(1))

    def test_weight_on_middle_state(self, counterexample_op):
        assert gen.apply_exact(counterexample_op, (0, 1, 0)) == (F(0), F(1, 2), F(1))

    def test_interior_vertex_case(self, counterexample_op):
        # concave quadratic with the maximiser strictly inside (0, 1/2)
        f = (F(0), F(1), F(3, 4))
        # curve value: 3/4 + t/4 - 3 t^2 / 4, vertex t = 1/6, value 3/4 + 1/48
        assert gen.apply_exact(counterexample_op, f)[1] == F(3, 4) + F(1, 48)

    def test_overflow_stays_silent(self, counterexample_op):
        # f(a) - f(c) overflows to inf, and inf - inf is nan further on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = counterexample_op.apply([1e308, 0.0, -1e308])
            counterexample_op.apply([np.inf, 0.0, np.inf])
        # the exact curve at t = 1/2 is 0, so b keeps max(f(a), 0)
        assert got.tolist() == [1e308, 1e308, 1e308]

    def test_overflowing_differences_keep_the_exact_value(self, counterexample_op):
        rng = random.Random(6)
        big = [1e308, -1e308, 1.7e308, -1.7e308, np.finfo(float).max, -np.finfo(float).max,
               9e307, -9e307, 1.0, -2.5, 0.0, 5e-324]
        lost = 0
        for _ in range(500):
            f = [rng.choice(big) if rng.random() < 0.8 else rng.uniform(-1, 1) * 1e308
                 for _ in range(3)]
            with np.errstate(over="ignore"):
                lost += not np.isfinite(2 * (f[0] - f[2])) or not np.isfinite(f[1] - f[2])
            exact = [float(v) for v in gen.apply_exact(counterexample_op, f)]
            got = counterexample_op.apply(f)
            assert np.isfinite(got).all()
            assert np.allclose(got, exact, rtol=0, atol=1e-12 * max(map(abs, f)))
            # the lane that needed rescaling leaves its neighbours' bits alone
            block = np.column_stack([f, [0.3, -0.5, 0.7], [1.0, 1e-300, -2.0]])
            out = counterexample_op.apply(block)
            assert out[:, 0].tobytes() == got.tobytes()
            for j in (1, 2):
                assert out[:, j].tobytes() == gen.reference_counterexample_apply(block[:, j]).tobytes()
        assert lost > 200

    def test_float_matches_exact(self, counterexample_op):
        rng = random.Random(5)
        for _ in range(100):
            f = gen.random_rational_function(rng, 3)
            exact = gen.apply_exact(counterexample_op, f)
            approx = counterexample_op.apply([float(x) for x in f])
            assert np.allclose(approx, [float(v) for v in exact], atol=1e-12)


class TestBlockApply:
    """``apply`` on an ``(n, m)`` block acts column by column."""

    def test_counterexample_columns_match_the_scalar_form_bit_for_bit(self, counterexample_op):
        rng = np.random.default_rng(5)
        # signed zeros, ties and extremes next to plain draws
        specials = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, -1e-300, 5e-324])
        for k in range(2000):
            m = int(rng.integers(1, 9))
            if k % 3 == 0:
                block = rng.random((3, m))
            elif k % 3 == 1:
                block = rng.choice(specials, size=(3, m))
            else:
                block = rng.normal(size=(3, m)) * 10.0 ** int(rng.integers(-5, 5))
            out = counterexample_op.apply(block)
            assert out.shape == (3, m)
            for j in range(m):
                expected = gen.reference_counterexample_apply(block[:, j]).tobytes()
                assert out[:, j].tobytes() == expected
                assert counterexample_op.apply(block[:, j]).tobytes() == expected

    def test_credal_columns_match_single_vectors(self):
        rng = random.Random(9)
        draws = np.random.default_rng(9)
        for k in range(600):
            if k % 2:
                op = gen.random_operator(rng, max_pmfs=4)
            else:
                op = gen.random_wide_operator(rng, rng.randint(20, 30), max_pmfs=4)
            block = draws.random((op.n, int(draws.integers(1, 40))))
            out = op.apply(block)
            assert out.shape == block.shape
            for j in range(block.shape[1]):
                assert np.max(np.abs(out[:, j] - op.apply(block[:, j]))) <= 1e-15

    def test_block_shape_is_checked(self, running_op):
        with pytest.raises(DimensionMismatchError):
            running_op.apply(np.zeros((4, 3)))
        with pytest.raises(DimensionMismatchError):
            running_op.apply(np.zeros((5, 2, 2)))


class TestGatherMax:
    """``CredalOperator.apply`` takes each state's maximum by a padded gather,
    bit for bit as the ``np.maximum.reduceat`` form (``gen.reference_credal_apply``)."""

    SPECIALS = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, -5e-324, 2.2250738585072014e-308,
                         -1e-300, 1e300, -1e300, np.inf, -np.inf])

    def functions(self, draws, n: int, k: int) -> np.ndarray:
        m = int(draws.integers(1, 61))
        kind = k % 4
        if kind == 0:
            return draws.random((n, m))
        if kind == 1:  # signed zeros and subnormals only: ties of 0.0 and -0.0
            return draws.choice(self.SPECIALS[[0, 1, 5, 6]], size=(n, m))
        if kind == 2:
            return draws.choice(self.SPECIALS, size=(n, m))
        return draws.normal(size=(n, m)) * 10.0 ** draws.integers(-320, 300, size=(n, m))

    def test_matches_the_reduceat_form_bit_for_bit(self):
        rng = random.Random(17)
        draws = np.random.default_rng(17)
        seen = {"nan": 0, "negative zero": 0, "vanishing mass": 0, "widths": set()}
        for k in range(2100):
            if k % 3 == 0:
                op = gen.random_operator(rng, max_pmfs=rng.randint(1, 6))
            elif k % 3 == 1:
                op = gen.random_wide_operator(rng, rng.randint(3, 40), max_pmfs=rng.randint(1, 8))
            else:
                op = gen.planted_cyclic_operator(rng)[0]
            if k % 7 == 0:
                op = gen.with_vanishing_masses(rng, op)
                seen["vanishing mass"] += int((op._matrix == 0).sum() > (~gen.dense_table(op.supports()).rows).sum())
            block = self.functions(draws, op.n, k)
            seen["widths"].add(block.shape[1])
            for f in (block, block[:, 0]):
                with np.errstate(invalid="ignore"):  # 0 * inf
                    out, ref = op.apply(f), gen.reference_credal_apply(op, f)
                assert out.shape == ref.shape
                nan = np.isnan(ref)
                assert np.array_equal(np.isnan(out), nan), k
                assert out[~nan].tobytes() == ref[~nan].tobytes(), k
                seen["nan"] += int(nan.any())
                seen["negative zero"] += int(((ref == 0) & np.signbit(ref)).any())
        assert seen.pop("widths") == set(range(1, 61))
        assert min(seen.values()) > 50, seen


class TestValidation:
    def test_running_model_accepted(self, running_op):
        assert running_op.n == 5
        assert running_op.is_finitely_generated

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ModelValidationError, match="sum"):
            gen.build(["x", "y"], {"x": [{"x": F(1, 2), "y": F(1, 3)}], "y": [{"y": 1}]})

    def test_empty_set_rejected(self):
        with pytest.raises(ModelValidationError, match="empty credal set"):
            gen.build(["x", "y"], {"x": [], "y": [{"y": 1}]})

    def test_missing_state_rejected(self):
        with pytest.raises(ModelValidationError, match="no credal set"):
            gen.build(["x", "y"], {"x": [{"x": 1}]})

    def test_unknown_target_rejected(self):
        with pytest.raises(ModelValidationError, match="unknown"):
            gen.build(["x"], {"x": [{"z": 1}]})

    def test_negative_mass_rejected(self):
        with pytest.raises(ModelValidationError, match=r"negative mass at positions \[0\]"):
            gen.build(["x", "y"], {"x": [{"y": F(3, 2), "x": F(-1, 2)}], "y": [{"y": 1}]})

    def test_pmf_sum_mismatch_rejected(self):
        # the sum of the masses given; omitted targets carry mass zero
        with pytest.raises(
            ModelValidationError, match=r"^pmf #1 for state 'x': masses sum to 5/6, expected exactly 1$"
        ):
            gen.build(["x", "y", "z"], {x: [{x: 1}, {"x": F(1, 2), "z": F(1, 3)}] for x in "xyz"})

    def test_pmf_zero_masses_dropped(self):
        op = gen.build(["x", "y"], {"x": [{"y": 0, "x": 1}, {"x": 1}], "y": [{"y": "2/4", "x": "1/2"}]})
        assert op.pmfs == (
            (((0, 1, 1),),),  # one pmf: zero masses are dropped, so the two are duplicates
            (((0, 1, 2), (1, 1, 2)),),  # reduced integer triples, in index order
        )
        assert gen.masses(op.pmfs[0][0]) == ((0, F(1)),)

    def test_duplicate_labels_among_many_rejected_quickly(self):
        labels = tuple(f"s{i}" for i in range(20_000)) + ("s7",)
        start = time.perf_counter()
        with pytest.raises(ModelValidationError, match=r"duplicate state labels: \['s7'\]"):
            StateSpace(labels)
        assert time.perf_counter() - start < 2.0

    def test_duplicates_removed(self):
        op = gen.build(["x", "y"], {"x": [{"x": "1"}, {"x": "2/2"}], "y": [{"y": 1}]})
        assert len(op.pmfs[0]) == 1
        assert op._matrix.shape == (2, 2)


class TestAxioms:
    """Structural properties of the maximum-expectation construction, exact."""

    CASES = 300

    def test_subadditive(self):
        rng = random.Random(21)
        for _ in range(self.CASES):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            g = gen.random_rational_function(rng, op.n)
            fg = gen.apply_exact(op, tuple(a + b for a, b in zip(f, g)))
            split = tuple(a + b for a, b in zip(gen.apply_exact(op, f), gen.apply_exact(op, g)))
            assert all(a <= b for a, b in zip(fg, split))

    def test_positively_homogeneous(self):
        rng = random.Random(22)
        for _ in range(self.CASES):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            lam = F(rng.randint(0, 12), rng.randint(1, 6))
            scaled = gen.apply_exact(op, tuple(lam * a for a in f))
            assert scaled == tuple(lam * v for v in gen.apply_exact(op, f))

    def test_bounded_between_min_and_max(self):
        rng = random.Random(23)
        for _ in range(self.CASES):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            lo, hi = min(f), max(f)
            upper = gen.apply_exact(op, f)
            lower = gen.apply_lower_exact(op, f)
            assert all(lo <= a <= b <= hi for a, b in zip(lower, upper))

    def test_monotone(self):
        rng = random.Random(24)
        for _ in range(self.CASES):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            bump = tuple(F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(op.n))
            g = tuple(a + b for a, b in zip(f, bump))
            assert all(a <= b for a, b in zip(gen.apply_exact(op, f), gen.apply_exact(op, g)))

    def test_constant_additive(self):
        rng = random.Random(25)
        for _ in range(self.CASES):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            mu = F(rng.randint(-8, 8), rng.randint(1, 4))
            shifted = gen.apply_exact(op, tuple(mu + a for a in f))
            assert shifted == tuple(mu + v for v in gen.apply_exact(op, f))

    def test_argmax_indicator_bound(self):
        rng = random.Random(26)
        for _ in range(self.CASES):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            x = max(range(op.n), key=lambda i: f[i])
            span = max(f) - min(f)
            hit = gen.upper_indicator(op, x)
            upper = gen.apply_exact(op, f)
            assert all(span * h + min(f) <= v for h, v in zip(hit, upper))

    def test_indicator_complement_identity_small(self):
        rng = random.Random(27)
        for _ in range(40):
            op = gen.random_operator(rng, n=rng.randint(2, 4))
            for bits in range(2**op.n):
                subset = frozenset(i for i in range(op.n) if bits >> i & 1)
                complement = frozenset(range(op.n)) - subset
                upper = gen.upper_indicator(op, subset) if subset else (F(0),) * op.n
                lower = gen.lower_direct(op, ind(op.n, *complement))
                assert upper == tuple(1 - v for v in lower)

    def test_composition_matches_brute_force(self):
        rng = random.Random(28)
        for _ in range(60):
            op = gen.random_operator(rng, n=rng.randint(2, 3), max_pmfs=2)
            f = gen.random_rational_function(rng, op.n)
            for steps in (1, 2, 3):
                iterated = f
                for _ in range(steps):
                    iterated = gen.apply_exact(op, iterated)
                assert iterated == gen.brute_force_power(op, f, steps)


class TestCounterexampleAxioms:
    def test_counterexample_satisfies_axioms(self, counterexample_op):
        rng = random.Random(29)
        op = counterexample_op
        for _ in range(300):
            f = gen.random_rational_function(rng, 3)
            g = gen.random_rational_function(rng, 3)
            fg = gen.apply_exact(op, tuple(a + b for a, b in zip(f, g)))
            split = tuple(a + b for a, b in zip(gen.apply_exact(op, f), gen.apply_exact(op, g)))
            assert all(a <= b for a, b in zip(fg, split))
            lam = F(rng.randint(0, 9), rng.randint(1, 5))
            assert gen.apply_exact(op, tuple(lam * a for a in f)) == tuple(
                lam * v for v in gen.apply_exact(op, f)
            )
            assert max(gen.apply_exact(op, f)) <= max(f)

    def test_registry_entry(self):
        from imclim import BUILTIN_OPERATORS

        op = BUILTIN_OPERATORS["builtin:counterexample-5.1"]()
        assert isinstance(op, CounterexampleOperator)
        assert not op.is_finitely_generated


def _target_sets(rng, n):
    if n <= 3:
        return [frozenset(i for i in range(n) if bits >> i & 1) for bits in range(2**n)]
    return [frozenset()] + [gen.random_subset(rng, n) for _ in range(5)]


def assert_table_matches_exact(table, op, rng):
    """``table`` gives the successors and lower-positive sets that exact
    indicator evaluation of ``op`` gives."""
    assert table.space == op.space
    exact = gen.exact_adjacency(op)
    assert [list(heads) for heads in table.successors] == [np.flatnonzero(r).tolist() for r in exact]
    dense = gen.dense_table(table)
    for targets in _target_sets(rng, op.n):
        assert dense.lower_positive(targets) == gen.exact_lower_positive(op, targets)


class TestStructuralHook:
    """Support tables, and their cuts at every level, against exact indicator evaluation."""

    def test_support_structure_matches_exact_indicators(self):
        rng = random.Random(41)
        for _ in range(2000):
            op = gen.random_operator(
                rng, n=rng.randint(1, 6), max_pmfs=rng.randint(1, 4), max_den=rng.randint(1, 8)
            )
            assert_table_matches_exact(op.supports(), op, rng)

    def test_masses_below_float_range_still_count(self):
        q = 10**400  # float(1 / q) == 0.0
        op = parse_model({
            "states": ["a", "b"],
            "credal_sets": {"a": [{"a": f"{q - 1}/{q}", "b": f"1/{q}"}], "b": [{"b": "1"}]},
        })
        assert op._matrix[0].tolist() == [1.0, 0.0]
        table = op.supports()
        assert table.successors == ((0, 1), (1,))
        assert lower_reach_set(table, {1})[0] == frozenset({0, 1})
        assert np.array_equal(gen.dense_table(table).adjacency(), gen.exact_adjacency(op))

    def test_state_indices_out_of_range_rejected(self, running_op):
        # a negative index would otherwise count from the end, and the others
        # end in an IndexError or a TypeError
        table = running_op.supports()
        for bad in (-1, 5, 1.5):
            message = "^" + re.escape(f"state index {bad} out of range 0..4") + "$"
            with pytest.raises(ModelValidationError, match=message):
                table.restrict([0, bad])
            with pytest.raises(ModelValidationError, match=message):
                lower_reach_set(table, [bad])

    def test_exact_path_reports_are_byte_identical(
        self, running_op, delayed_cycle_op, counterexample_op
    ):
        # Every level's graph and lower reach come from the exact indicators
        # of the operator restricted to the level's states.
        rng = random.Random(43)
        ops = [running_op, delayed_cycle_op, counterexample_op]
        ops += [gen.random_operator(rng, n=rng.randint(1, 7), max_pmfs=rng.randint(1, 3))
                for _ in range(2000)]
        levels = 0
        for op in ops:
            for states, table, level in gen.level_partitions(op):
                reference = gen.restrict(op, states)
                assert_table_matches_exact(table, reference, rng)
                assert np.array_equal(build_graph(table).adjacency, gen.exact_adjacency(reference))
                current = gen.maximal_states(level)
                sequence = [current]
                while added := gen.exact_lower_positive(reference, current) - current:
                    current |= added
                    sequence.append(current)
                assert level.reach_sequence == tuple(sequence)
                levels += 1
        assert levels > len(ops)

    def test_counterexample_table_matches_exact(self, counterexample_op):
        rng = random.Random(44)
        table = counterexample_op.supports()
        assert_table_matches_exact(table, counterexample_op, rng)
        for bits in range(1, 7):
            keep = [i for i in range(3) if bits >> i & 1]
            try:
                direct = gen.restrict(counterexample_op, keep).supports()
            except NotWellDefinedError as exc:
                with pytest.raises(NotWellDefinedError) as cut_exc:
                    table.restrict(keep)
                assert str(cut_exc.value) == str(exc)
                continue
            cut = table.restrict(keep)
            assert cut.space == direct.space
            assert cut.supports == direct.supports
            assert_table_matches_exact(cut, gen.restrict(counterexample_op, keep), rng)


class TestSparseAgainstDense:
    """Sparse pmfs, and the support tuples and restrictions built from them,
    against dense mass vectors of the same masses."""

    def test_random_families(self):
        rng = random.Random(45)
        for _ in range(2000):
            n = rng.randint(1, 7)
            op = gen.random_operator(
                rng, n, max_pmfs=rng.randint(1, 4), max_den=rng.randint(1, 8)
            )
            per_dense = [[gen.dense(p, n) for p in sets] for sets in op.pmfs]
            # canonical order is the order of the dense vectors
            assert all(rows == sorted(set(rows)) for rows in per_dense)
            rows = [row for sets in per_dense for row in sets]
            f = gen.random_rational_function(rng, n)
            pmfs = [p for sets in op.pmfs for p in sets]
            for p, row in zip(pmfs, rows):
                assert gen.expectation(p, f) == sum(m * v for m, v in zip(row, f))
            assert np.array_equal(op._matrix, [[float(m) for m in row] for row in rows])
            assert np.array_equal(gen.dense_table(op.supports()).rows, [[m > 0 for m in row] for row in rows])

            keep = sorted(gen.random_subset(rng, n))
            expected = [
                sorted(
                    {tuple(row[i] for i in keep) for row in per_dense[x]
                     if all(row[j] == 0 for j in range(n) if j not in keep)}
                )
                for x in keep
            ]
            if not all(expected):
                with pytest.raises(NotWellDefinedError):
                    gen.restrict(op, keep)
                with pytest.raises(NotWellDefinedError):
                    op.supports().restrict(keep)
                continue
            restricted = gen.restrict(op, keep)
            assert restricted.space == op.space.subset(keep)
            got = [[gen.dense(p, len(keep)) for p in sets] for sets in restricted.pmfs]
            assert got == expected
            cut = op.supports().restrict(keep)
            assert cut.supports == tuple(
                tuple(tuple(i for i, m in enumerate(row) if m) for row in sets) for sets in expected
            )
