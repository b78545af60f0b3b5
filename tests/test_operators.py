import random
from fractions import Fraction

import numpy as np
import pytest

import gen
from imclim import (
    CounterexampleOperator,
    CredalFamily,
    CredalOperator,
    DimensionMismatchError,
    ModelValidationError,
    NotWellDefinedError,
    Pmf,
    StateSpace,
    UpperOperator,
    analyze,
    identity_operator,
    validate_family,
)

F = Fraction


def ind(n, *targets):
    return tuple(F(int(i in targets)) for i in range(n))


class TestEvaluation:
    def test_upper_on_pair_indicator(self, running_op):
        got = running_op.apply_exact(ind(5, 0, 1))
        assert got == (F(1), F(1), F(1, 2), F(0), F(0))

    def test_constant_is_fixed(self):
        rng = random.Random(7)
        for _ in range(25):
            op = gen.random_operator(rng)
            mu = F(rng.randint(-5, 5), rng.randint(1, 4))
            assert op.apply_exact((mu,) * op.n) == (mu,) * op.n

    def test_identity_operator_fixes_everything(self):
        op = identity_operator(["x", "y", "z"])
        f = (F(3, 7), F(-1), F(2))
        assert op.apply_exact(f) == f
        assert np.allclose(op.apply([0.3, -1.0, 2.0]), [0.3, -1.0, 2.0])

    def test_float_path_matches_exact(self, running_op):
        rng = random.Random(3)
        for k in range(350):
            op = running_op if k < 50 else gen.random_operator(
                rng, n=rng.randint(1, 7), max_pmfs=rng.randint(1, 4)
            )
            f = gen.random_rational_function(rng, op.n)
            exact = op.apply_exact(f)
            approx = op.apply([float(x) for x in f])
            assert np.allclose(approx, [float(v) for v in exact], atol=1e-12)

    def test_dimension_mismatch(self, running_op):
        with pytest.raises(DimensionMismatchError):
            running_op.apply([1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            running_op.apply_exact((F(1),))


class TestLower:
    def test_lower_identity(self):
        op = identity_operator(["x", "y"])
        f = (F(1, 3), F(5))
        assert op.apply_lower_exact(f) == f

    def test_lower_single_indicator(self, running_op):
        got = running_op.lower_indicator(0)
        assert got[2] == F(1, 4)
        assert got == (F(1), F(0), F(1, 4), F(0), F(0))

    def test_counterexample_lower_indicator_is_fixed(self, counterexample_op):
        assert counterexample_op.lower_indicator(0) == ind(3, 0)

    def test_lower_matches_direct_minimum(self):
        # conjugate route vs direct per-state minimum expectation
        rng = random.Random(11)
        for _ in range(200):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            assert op.apply_lower_exact(f) == gen.lower_direct(op, f)


class TestIndicators:
    def test_running_indicator_row(self, running_op):
        assert running_op.upper_indicator(2) == (F(0), F(0), F(0), F(1), F(1))

    def test_identity_indicator(self):
        op = identity_operator(["x", "y", "z"])
        for i in range(3):
            assert op.upper_indicator(i) == ind(3, i)

    def test_counterexample_indicator_b(self, counterexample_op):
        assert counterexample_op.upper_indicator(1) == (F(0), F(1, 2), F(1))

    def test_invalid_state_index(self, running_op):
        with pytest.raises(ModelValidationError):
            running_op.upper_indicator(9)


class TestCounterexampleClosedForm:
    def test_weight_on_last_state(self, counterexample_op):
        assert counterexample_op.apply_exact((0, 0, 1)) == (F(0), F(1), F(0))

    def test_constants_preserved(self, counterexample_op):
        assert counterexample_op.apply_exact((1, 1, 1)) == (F(1), F(1), F(1))

    def test_weight_on_middle_state(self, counterexample_op):
        assert counterexample_op.apply_exact((0, 1, 0)) == (F(0), F(1, 2), F(1))

    def test_interior_vertex_case(self, counterexample_op):
        # concave quadratic with the maximiser strictly inside (0, 1/2)
        f = (F(0), F(1), F(3, 4))
        # curve value: 3/4 + t/4 - 3 t^2 / 4, vertex t = 1/6, value 3/4 + 1/48
        assert counterexample_op.apply_exact(f)[1] == F(3, 4) + F(1, 48)

    def test_float_matches_exact(self, counterexample_op):
        rng = random.Random(5)
        for _ in range(100):
            f = gen.random_rational_function(rng, 3)
            exact = counterexample_op.apply_exact(f)
            approx = counterexample_op.apply([float(x) for x in f])
            assert np.allclose(approx, [float(v) for v in exact], atol=1e-12)


class TestValidation:
    def test_running_model_accepted(self, running_op):
        assert running_op.n == 5
        assert running_op.is_finitely_generated

    def test_sum_mismatch_rejected(self):
        with pytest.raises(ModelValidationError, match="sum"):
            validate_family(["x", "y"], {"x": [{"x": F(1, 2), "y": F(1, 3)}],
                                         "y": [{"y": F(1)}]})

    def test_empty_set_rejected(self):
        with pytest.raises(ModelValidationError, match="empty credal set"):
            validate_family(["x", "y"], {"x": [], "y": [{"y": F(1)}]})

    def test_missing_state_rejected(self):
        with pytest.raises(ModelValidationError, match="no credal set"):
            validate_family(["x", "y"], {"x": [{"x": F(1)}]})

    def test_unknown_target_rejected(self):
        with pytest.raises(ModelValidationError, match="unknown"):
            validate_family(["x"], {"x": [{"z": F(1)}]})

    def test_negative_mass_rejected(self):
        with pytest.raises(ModelValidationError, match="negative"):
            Pmf(2, {0: F(-1, 2), 1: F(3, 2)})

    def test_pmf_index_out_of_range_rejected(self):
        with pytest.raises(ModelValidationError, match="out of range"):
            Pmf(2, {0: F(1, 2), 2: F(1, 2)})
        with pytest.raises(ModelValidationError, match="out of range"):
            Pmf(2, {-1: F(1, 2), 1: F(1, 2)})

    def test_pmf_sum_mismatch_rejected(self):
        with pytest.raises(ModelValidationError, match="sum"):
            Pmf(3, {0: F(1, 2), 2: F(1, 3)})

    def test_pmf_zero_masses_dropped(self):
        assert Pmf(2, {0: 1, 1: 0}) == Pmf(2, {0: 1})
        assert Pmf(2, {1: 0, 0: 1}).mass == ((0, F(1)),)
        assert type(Pmf(2, {0: 1}).mass[0][1]) is F  # ints become Fractions

    def test_duplicates_removed(self):
        fam = validate_family(
            ["x", "y"], {"x": [{"x": F(1)}, {"x": F(1)}], "y": [{"y": F(1)}]}
        )
        assert len(fam.per_state[0]) == 1


class TestAxioms:
    """Structural properties of the maximum-expectation construction, exact."""

    CASES = 300

    def test_subadditive(self):
        rng = random.Random(21)
        for _ in range(self.CASES):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            g = gen.random_rational_function(rng, op.n)
            fg = op.apply_exact(tuple(a + b for a, b in zip(f, g)))
            split = tuple(a + b for a, b in zip(op.apply_exact(f), op.apply_exact(g)))
            assert all(a <= b for a, b in zip(fg, split))

    def test_positively_homogeneous(self):
        rng = random.Random(22)
        for _ in range(self.CASES):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            lam = F(rng.randint(0, 12), rng.randint(1, 6))
            scaled = op.apply_exact(tuple(lam * a for a in f))
            assert scaled == tuple(lam * v for v in op.apply_exact(f))

    def test_bounded_between_min_and_max(self):
        rng = random.Random(23)
        for _ in range(self.CASES):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            lo, hi = min(f), max(f)
            upper = op.apply_exact(f)
            lower = op.apply_lower_exact(f)
            assert all(lo <= a <= b <= hi for a, b in zip(lower, upper))

    def test_monotone(self):
        rng = random.Random(24)
        for _ in range(self.CASES):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            bump = tuple(F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(op.n))
            g = tuple(a + b for a, b in zip(f, bump))
            assert all(a <= b for a, b in zip(op.apply_exact(f), op.apply_exact(g)))

    def test_constant_additive(self):
        rng = random.Random(25)
        for _ in range(self.CASES):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            mu = F(rng.randint(-8, 8), rng.randint(1, 4))
            shifted = op.apply_exact(tuple(mu + a for a in f))
            assert shifted == tuple(mu + v for v in op.apply_exact(f))

    def test_argmax_indicator_bound(self):
        rng = random.Random(26)
        for _ in range(self.CASES):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            x = max(range(op.n), key=lambda i: f[i])
            span = max(f) - min(f)
            hit = op.upper_indicator(x)
            upper = op.apply_exact(f)
            assert all(span * h + min(f) <= v for h, v in zip(hit, upper))

    def test_indicator_complement_identity_small(self):
        rng = random.Random(27)
        for _ in range(40):
            op = gen.random_operator(rng, n=rng.randint(2, 4))
            for bits in range(2**op.n):
                subset = frozenset(i for i in range(op.n) if bits >> i & 1)
                complement = frozenset(range(op.n)) - subset
                upper = op.upper_indicator(subset) if subset else (F(0),) * op.n
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
                    iterated = op.apply_exact(iterated)
                assert iterated == gen.brute_force_power(op, f, steps)


class TestCounterexampleAxioms:
    def test_counterexample_satisfies_axioms(self, counterexample_op):
        rng = random.Random(29)
        op = counterexample_op
        for _ in range(300):
            f = gen.random_rational_function(rng, 3)
            g = gen.random_rational_function(rng, 3)
            fg = op.apply_exact(tuple(a + b for a, b in zip(f, g)))
            split = tuple(a + b for a, b in zip(op.apply_exact(f), op.apply_exact(g)))
            assert all(a <= b for a, b in zip(fg, split))
            lam = F(rng.randint(0, 9), rng.randint(1, 5))
            assert op.apply_exact(tuple(lam * a for a in f)) == tuple(
                lam * v for v in op.apply_exact(f)
            )
            assert max(op.apply_exact(f)) <= max(f)

    def test_registry_entry(self):
        from imclim import BUILTIN_OPERATORS

        op = BUILTIN_OPERATORS["builtin:counterexample-5.1"]()
        assert isinstance(op, CounterexampleOperator)
        assert not op.is_finitely_generated


class ExactPathOperator(CredalOperator):
    """Credal operator whose structure comes from the base class's exact indicators."""

    adjacency = UpperOperator.adjacency
    lower_positive = UpperOperator.lower_positive


def _target_sets(rng, n):
    if n <= 3:
        return [frozenset(i for i in range(n) if bits >> i & 1) for bits in range(2**n)]
    return [frozenset()] + [gen.random_subset(rng, n) for _ in range(5)]


class TestStructuralHook:
    """The support-based hook of credal operators against exact indicator evaluation."""

    def assert_hook_matches_exact(self, op, rng):
        assert np.array_equal(op.adjacency(), UpperOperator.adjacency(op))
        for targets in _target_sets(rng, op.n):
            assert op.lower_positive(targets) == UpperOperator.lower_positive(op, targets)

    def test_support_structure_matches_exact_indicators(self):
        rng = random.Random(41)
        for _ in range(2000):
            op = gen.random_operator(
                rng, n=rng.randint(1, 6), max_pmfs=rng.randint(1, 4), max_den=rng.randint(1, 8)
            )
            self.assert_hook_matches_exact(op, rng)

    def test_masses_below_float_range_still_count(self):
        tiny = F(1, 10**400)  # float(tiny) == 0.0
        space = StateSpace(("a", "b"))
        family = CredalFamily(space, ((Pmf(2, {0: 1 - tiny, 1: tiny}),), (Pmf(2, {1: F(1)}),)))
        op = CredalOperator(family)
        assert op.adjacency()[0, 1]
        assert op.lower_positive({1}) == frozenset({0, 1})
        assert np.array_equal(op.adjacency(), UpperOperator.adjacency(op))

    def test_exact_path_reports_are_byte_identical(self, running_op, delayed_cycle_op):
        rng = random.Random(43)
        ops = [running_op, delayed_cycle_op]
        ops += [gen.random_operator(rng, n=rng.randint(1, 7), max_pmfs=rng.randint(1, 3))
                for _ in range(300)]
        for op in ops:
            exact = ExactPathOperator(op.family)
            exact_report = analyze(exact)
            assert all(
                type(level.operator) is ExactPathOperator
                for level in exact_report.decomposition.levels
            )
            assert exact_report.to_json() == analyze(op).to_json()


class TestSparseAgainstDense:
    """Sparse pmfs, and the rows and restrictions built from them, against
    dense mass vectors of the same masses."""

    def test_random_families(self):
        rng = random.Random(45)
        for _ in range(2000):
            n = rng.randint(1, 7)
            family = gen.random_family(
                rng, n, max_pmfs=rng.randint(1, 4), max_den=rng.randint(1, 8)
            )
            op = CredalOperator(family)
            per_dense = [[gen.dense(p) for p in sets] for sets in family.per_state]
            # canonical order is the order of the dense vectors
            assert all(rows == sorted(set(rows)) for rows in per_dense)
            rows = [row for sets in per_dense for row in sets]
            f = gen.random_rational_function(rng, n)
            pmfs = [p for sets in family.per_state for p in sets]
            for p, row in zip(pmfs, rows):
                assert p.expectation(f) == sum(m * v for m, v in zip(row, f))
            assert np.array_equal(op._matrix, [[float(m) for m in row] for row in rows])
            assert np.array_equal(op._supports, [[m > 0 for m in row] for row in rows])

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
                    family.restrict(keep)
                continue
            restricted = family.restrict(keep)
            assert all(p.n == len(keep) for sets in restricted.per_state for p in sets)
            got = [[gen.dense(p) for p in sets] for sets in restricted.per_state]
            assert got == expected
