import io
import itertools
import logging
import random
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import gen
from imclim import (
    CounterexampleOperator,
    DimensionMismatchError,
    OrbitCheck,
    OrbitParams,
    PreconditionError,
    analyze,
    default_function_suite,
    iterate_orbit,
    iterate_orbits,
    oracle_compare,
    partition_states,
    replay_orbit,
    search_cycle_witness,
    write_orbit_trace,
)

F = Fraction

FAST = OrbitParams(burn_in=20, max_iters=2000, max_period=16)


def _count_reruns(monkeypatch) -> Counter:
    """Count the blocks run (``"blocks"``) and rerun (``"reruns"``) from now on.

    Wraps the block runner and checks that only a first run stops, and that
    a stopped block is rerun once, next, and that rerun ends.
    """
    import imclim.orbits

    run_block = imclim.orbits._iterate_block
    counts = Counter()
    stopped = []

    def counting(op, block, p, cap, windows, watch):
        if watch:
            assert not stopped
            counts["blocks"] += 1
        else:
            assert stopped and stopped.pop() is block
            counts["reruns"] += 1
        result = run_block(op, block, p, cap, windows, watch)
        if result is None:
            assert watch
            stopped.append(block)
        return result

    monkeypatch.setattr(imclim.orbits, "_iterate_block", counting)
    return counts


class TestIterateOrbit:
    def test_constant_function_is_immediate(self, running_op):
        result = iterate_orbit(running_op, np.full(5, 0.7))
        assert result.converged and result.detected_period == 1
        assert result.iterations == 1
        assert result.residual == 0.0

    def test_running_indicator_b(self, running_op):
        result = iterate_orbit(running_op, [0.0, 1.0, 0.0, 0.0, 0.0])
        assert result.converged
        limit = result.limit
        assert np.allclose(limit, [0.0, 1.0, 0.5, 0.5, 0.5], atol=1e-9)
        # the claimed limit is an exact fixed point
        fixed = (F(0), F(1), F(1, 2), F(1, 2), F(1, 2))
        assert gen.apply_exact(running_op, fixed) == fixed

    def test_two_cycle_alternates(self, two_cycle_op):
        result = iterate_orbit(two_cycle_op, [1.0, 0.0], FAST)
        assert result.detected_period == 2
        assert result.stop_reason == "exact_repeat"
        cycle = result.limit_cycle
        assert len(cycle) == 2
        assert np.allclose(sorted(cycle[0]), [0.0, 1.0])
        # consecutive cycle elements map to each other, and the cycle closes
        assert np.allclose(two_cycle_op.apply(cycle[0]), cycle[1], atol=2e-9)
        assert np.allclose(two_cycle_op.apply(cycle[1]), cycle[0], atol=2e-9)

    def test_counterexample_slow_orbit_is_honest_at_defaults(self):
        # the middle-row curve makes these orbits approach their limit at rate
        # O(1/n); without its closed-form limit nothing can be certified
        # within the default budget
        result = iterate_orbit(gen.UncertifiedCounterexample(), [0.0, 1.0, 0.0])
        assert result.detected_period is None
        assert not result.converged
        assert result.stop_reason == "budget"
        assert result.iterations == OrbitParams().max_iters

    def test_counterexample_limit_at_coarse_tolerance(self):
        # the gap to the limit shrinks like 1/n, so without its closed-form
        # limit certifying period 1 at tolerance 1e-3 takes on the order of
        # 1e4 iterations
        params = OrbitParams(tolerance=1e-3, burn_in=50, max_iters=12000, max_period=8)
        result = iterate_orbit(gen.UncertifiedCounterexample(), [0.0, 1.0, 0.0], params)
        assert result.converged
        assert np.allclose(result.limit, [0.0, 1.0, 1.0], atol=5e-3)
        # the harmonic approach never repeats exactly
        assert result.stop_reason == "sustained" and result.residual > 0

    def test_counterexample_fast_orbit(self, counterexample_op):
        # weight on the first state propagates everywhere in one step
        result = iterate_orbit(counterexample_op, [1.0, 0.0, 0.0], FAST)
        assert result.converged
        assert np.allclose(result.limit, [1.0, 1.0, 1.0])

    def test_budget_exhaustion_reports_none(self, two_cycle_op):
        params = OrbitParams(burn_in=0, max_iters=5, max_period=1)
        result = iterate_orbit(two_cycle_op, [0.25, 0.75], params)
        assert result.detected_period is None
        assert result.iterations == 5

    def test_iterates_stay_in_bounds(self):
        rng = random.Random(61)
        for _ in range(60):
            op = gen.random_operator(rng)
            f = gen.random_float_function(rng, op.n)
            result = iterate_orbit(op, f, FAST)
            lo, hi = f.min() - 1e-12, f.max() + 1e-12
            for vec in result.iterates_kept:
                assert lo <= vec.min() and vec.max() <= hi

    def test_huge_max_period_is_bounded_by_the_budget(self, two_cycle_op):
        # only periods up to the number of iterations run can be scored, so a
        # huge max_period costs no memory
        params = OrbitParams(max_period=10**12, max_iters=50)
        result = iterate_orbit(two_cycle_op, [1.0, 0.0], params)
        assert result.detected_period == 2 and not result.converged
        assert result.iterations == 2

    def test_trace_collection_and_csv(self, two_cycle_op):
        params = OrbitParams(burn_in=0, max_iters=10, max_period=4)
        result = iterate_orbit(two_cycle_op, [1.0, 0.0], params)
        trace = list(replay_orbit(two_cycle_op, [1.0, 0.0], result.iterations))
        assert len(trace) == result.iterations + 1
        buffer = io.StringIO()
        write_orbit_trace(buffer, two_cycle_op.space.labels, iter(trace))  # any iterable
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0] == "iteration,b,c"
        assert len(lines) == len(trace) + 1


def _bits(vectors):
    return None if vectors is None else tuple(v.tobytes() for v in vectors)


class TestBatchedEngine:
    """``iterate_orbits`` against the scalar engine it replaced (``gen.reference_iterate_orbit``)."""

    PARAMS = OrbitParams(burn_in=20, max_iters=400, max_period=16)

    @staticmethod
    def suites(columns: int):
        """Seeded (operator, start block) pairs: random operators of up to 5
        states and, every fourth, a sparse multi-pmf operator of 20 to 24 states."""
        rng = random.Random(71)
        done = 0
        for k in itertools.count():
            if done >= columns:
                return
            if k % 4:
                op = gen.random_operator(rng)
            else:
                op = gen.random_wide_operator(rng, rng.randint(20, 24))
            _, block = default_function_suite(op, 4, np.random.default_rng(k))
            done += block.shape[1]
            yield op, block

    def test_matches_the_scalar_reference(self):
        # The block's matrix product may round differently from the one-column
        # matrix-vector product, so batched iteration counts may move; the
        # certified periods may not.  The one-column case is bit for bit.
        reasons = Counter()
        columns = 0
        for op, block in self.suites(2000):
            batch = iterate_orbits(op, block, self.PARAMS)
            assert len(batch) == block.shape[1]
            for f, result in zip(block.T, batch):
                ref = gen.reference_iterate_orbit(op, f, self.PARAMS)
                assert result.detected_period == ref.detected_period
                assert result.converged == ref.converged
                one = iterate_orbit(op, f, self.PARAMS)
                assert one.iterations == ref.iterations
                assert one.residual == ref.residual
                assert one.stop_reason == ref.stop_reason
                assert _bits(one.limit_cycle) == _bits(ref.limit_cycle)
                assert _bits(one.iterates_kept) == _bits(ref.iterates_kept)
                reasons[ref.stop_reason] += 1
                columns += 1
        assert columns >= 2000
        assert set(reasons) == {"exact_repeat", "sustained", "budget"}

    def test_blocks_split_by_memory_budget(self, monkeypatch):
        import imclim.orbits

        for params, (op, block) in itertools.product(
            (self.PARAMS, OrbitParams()), itertools.islice(self.suites(2000), 8)
        ):
            whole = iterate_orbits(op, block, params)
            # one column per block: every column is its own one-column run
            monkeypatch.setattr(imclim.orbits, "_BLOCK_BYTES", 1)
            split = iterate_orbits(op, block, params)
            monkeypatch.undo()
            for f, a, b in zip(block.T, whole, split):
                one = iterate_orbit(op, f, params)
                assert a.detected_period == b.detected_period
                assert gen.orbit_result_bits(b) == gen.orbit_result_bits(one)

    def test_rejects_bad_blocks(self, running_op):
        with pytest.raises(DimensionMismatchError):
            iterate_orbits(running_op, np.zeros(5))
        with pytest.raises(DimensionMismatchError):
            iterate_orbits(running_op, np.zeros((4, 2)))
        with pytest.raises(PreconditionError):
            iterate_orbits(running_op, np.array([[0.0, np.inf]] * 5))
        assert iterate_orbits(running_op, np.zeros((5, 0))) == ()


class TestScoringWindow:
    """Residuals only from ``W = burn_in - max_period + 1`` on, and before it only on a print hit.

    The engine must give every ``OrbitResult`` field bit for bit as the
    engines that score every step: the scalar reference, one column at a
    time, and the block engine the window replaced, on whole blocks.
    """

    # the defaults (W = 137); burn_in >> max_period (W = 293); a budget that
    # ends before W; burn_in < max_period (W = 1); a coarse tolerance
    GRID = (
        OrbitParams(),
        OrbitParams(burn_in=300, max_period=8),
        OrbitParams(max_iters=60),
        OrbitParams(burn_in=5, max_period=16, max_iters=400),
        OrbitParams(tolerance=0.05),
    )

    @staticmethod
    def operators(seed: int):
        """Random operators of up to 5 states, every fourth a sparse one of 20 to 24 states."""
        rng = random.Random(seed)
        for k in itertools.count():
            if k % 4 == 3:
                yield gen.random_wide_operator(rng, rng.randint(20, 24))
            else:
                yield gen.random_operator(rng)

    def test_one_column_matches_the_scalar_reference(self):
        reasons = Counter()
        columns = 0
        for index, params in enumerate(self.GRID):
            done = 0
            for k, op in enumerate(self.operators(1401 + index)):
                if done >= 220:
                    break
                for f in default_function_suite(op, 2, np.random.default_rng(k))[1].T:
                    one = iterate_orbit(op, f, params)
                    ref = gen.reference_iterate_orbit(op, f, params)
                    assert gen.orbit_result_bits(one) == gen.orbit_result_bits(ref), (params, k)
                    reasons[one.stop_reason] += 1
                    done += 1
            columns += done
        assert columns >= 1000
        assert set(reasons) == {"exact_repeat", "sustained", "budget"}, reasons

    def test_replay_is_the_one_column_orbit(self, counterexample_op):
        # random, sparse wide and planted cyclic models, and the builtin, with
        # and without its closed-form limit, with a start whose first step
        # overflows: a certified run keeps its real window
        reasons = Counter()
        runs = 0
        for index, params in enumerate(self.GRID):
            rng = random.Random(1403 + index)
            ops = [counterexample_op, gen.UncertifiedCounterexample()]
            while len(ops) < 41:
                ops.append(gen.random_operator(rng))
                ops.append(gen.random_wide_operator(rng, rng.randint(12, 24)))
                ops.append(gen.planted_cyclic_operator(rng)[0])
            for k, op in enumerate(ops):
                starts = list(default_function_suite(op, 2, np.random.default_rng(k))[1].T)
                if isinstance(op, type(counterexample_op)):
                    starts.append(np.array([1e308, 0.0, -1e308]))
                for f in starts:
                    result = iterate_orbit(op, f, params)
                    replay = list(replay_orbit(op, f, result.iterations))
                    assert len(replay) == result.iterations + 1
                    assert replay[0].tobytes() == f.tobytes()
                    kept = replay[-len(result.iterates_kept):]
                    assert _bits(kept) == _bits(result.iterates_kept), (params, k)
                    reasons[result.stop_reason] += 1
                    runs += 1
        assert runs >= 2000
        assert set(reasons) == {"exact_repeat", "sustained", "certified", "budget"}, reasons

    @staticmethod
    def blocks(columns: int):
        """Seeded (operator, start block) pairs from random, sparse wide and
        planted cyclic models, until ``columns`` columns are drawn."""
        rng = random.Random(1402)
        done = 0
        for k in itertools.count():
            if done >= columns:
                return
            if k % 3 == 0:
                op = gen.random_operator(rng)
            elif k % 3 == 1:
                op = gen.random_wide_operator(rng, rng.randint(12, 24))
            else:
                op = gen.planted_cyclic_operator(rng)[0]
            _, block = default_function_suite(op, 8, np.random.default_rng(k))
            done += block.shape[1]
            yield op, block

    def test_blocks_match_the_all_slots_engine(self):
        reasons = Counter()
        columns = 0
        for k, (op, block) in enumerate(self.blocks(2000)):
            params = self.GRID[k % len(self.GRID)]
            batch = iterate_orbits(op, block, params)
            reference = gen.all_slots_iterate_orbits(op, block, params)
            assert len(batch) == len(reference) == block.shape[1]
            for a, b in zip(batch, reference):
                assert gen.orbit_result_bits(a) == gen.orbit_result_bits(b), (params, k)
                reasons[a.stop_reason] += 1
            columns += block.shape[1]
        assert columns >= 2000
        assert set(reasons) == {"exact_repeat", "sustained", "budget"}, reasons

    def test_signed_zeros_repeat_exactly(self):
        # the identity maps -0.0 to +0.0: equal as floats, so an exact repeat
        # at the first step, though the bit patterns differ
        op = gen.identity_operator("ab")
        for f in ([-0.0, 0.0], [1.0, -0.0]):
            result = iterate_orbit(op, f)
            assert (result.stop_reason, result.iterations) == ("exact_repeat", 1)
            assert result.detected_period == 1
            ref = gen.reference_iterate_orbit(op, f)
            assert gen.orbit_result_bits(result) == gen.orbit_result_bits(ref)

    def test_print_collisions_change_no_result(self, monkeypatch):
        import imclim.orbits

        # every print equal: every column's every past slot hits
        monkeypatch.setattr(imclim.orbits, "_fingerprint",
                            lambda values, weights: np.zeros(values.shape[1], dtype=np.uint64))
        reasons = Counter()
        for k, (op, block) in enumerate(itertools.islice(self.blocks(2000), 30)):
            params = self.GRID[k % len(self.GRID)]
            reference = gen.all_slots_iterate_orbits(op, block, params)
            for a, b in zip(iterate_orbits(op, block, params), reference):
                assert gen.orbit_result_bits(a) == gen.orbit_result_bits(b)
                reasons[a.stop_reason] += 1
            f = block[:, 0]
            assert gen.orbit_result_bits(iterate_orbit(op, f, params)) == \
                gen.orbit_result_bits(gen.reference_iterate_orbit(op, f, params))
        assert set(reasons) == {"exact_repeat", "sustained", "budget"}, reasons

    @staticmethod
    def rotations(params: OrbitParams):
        """Scaled rotations with starts whose step leaves tolerance between W and the burn-in."""
        for rho, k in itertools.product((1.0, 1 + 1e-9, 1 + 1e-6, 1.001, 1.01, 1.05),
                                        (2, 3, 4, 5, 7)):
            op = gen.ScaledRotation(rho, k)
            yield op, gen.rotation_starts(op, params, 10)

    def test_clean_columns_that_turn_match_the_all_slots_engine(self, monkeypatch):
        # a quiet column whose step leaves tolerance stops its block's run,
        # and the block reruns with every column scored in full from W
        import imclim.orbits

        reruns = _count_reruns(monkeypatch)
        rotation_reruns = 0
        reasons = Counter()
        for params in self.GRID:
            for op, starts in self.rotations(params):
                reference = gen.all_slots_iterate_orbits(op, starts, params)
                before = reruns["reruns"]
                batch = iterate_orbits(op, starts, params)
                rerun = reruns["reruns"] - before
                for a, b in zip(batch, reference):
                    assert gen.orbit_result_bits(a) == gen.orbit_result_bits(b), (params, op.rho)
                    reasons[a.stop_reason] += 1
                # the suite path reads the same periods, rerunning alike
                monkeypatch.setattr(imclim.orbits, "default_function_suite", lambda *args: (
                    [f"start:{j}" for j in range(starts.shape[1])], starts))
                comparison = oracle_compare(op, "inconclusive", params)
                monkeypatch.setattr(imclim.orbits, "default_function_suite", default_function_suite)
                assert [c.period for c in comparison.checks] == \
                    [r.detected_period for r in reference]
                assert reruns["reruns"] - before == 2 * rerun
                rotation_reruns += rerun
        assert reruns["blocks"] == 2 * 150  # each block by both paths
        assert rotation_reruns >= 80, rotation_reruns
        assert set(reasons) == {"exact_repeat", "sustained", "budget"}, reasons

    def test_only_blocks_whose_clean_columns_turn_rerun(self, monkeypatch, counterexample_op):
        # non-expansive: in exact arithmetic a quiet column's period-1
        # residual never grows, so seeded models rerun no block; a spurious
        # rerun costs time and changes no result.  The rotations, scaled to
        # leave tolerance after W, rerun (see the test above).
        reruns = _count_reruns(monkeypatch)
        rng = random.Random(1404)
        ops = [counterexample_op, gen.UncertifiedCounterexample()]
        for _ in range(100):
            ops.append(gen.random_operator(rng))
            ops.append(gen.random_wide_operator(rng, rng.randint(12, 24)))
            ops.append(gen.planted_cyclic_operator(rng)[0])
        for k, op in enumerate(ops):
            for params in self.GRID:
                oracle_compare(op, "inconclusive", params, seed=k)
        assert reruns == {"blocks": 5 * len(ops)}, reruns

    def test_a_rerun_block_logs_its_rerun_alone(self, caplog):
        # the first run stops when a quiet column leaves tolerance after W and
        # logs nothing; the rerun logs the block's one line
        op = gen.ScaledRotation(1.01, 4)
        params = OrbitParams()
        starts = gen.rotation_starts(op, params, 10)
        stops = Counter(r.stop_reason for r in gen.all_slots_iterate_orbits(op, starts, params))
        with caplog.at_level(logging.DEBUG, logger="imclim.orbits"):
            results = iterate_orbits(op, starts, params)
        records = [r for r in caplog.records if r.name == "imclim.orbits"]
        assert len(records) == 1
        steps = max(r.iterations for r in results)
        match = re.fullmatch(
            rf"orbit block: 10 columns, {steps} steps, (\d+) scored in full, "
            r"rerun without quiet columns; stops: exact_repeat (\d+), "
            r"sustained (\d+), certified (\d+), budget (\d+)",
            records[0].getMessage(),
        )
        assert match, records[0].getMessage()
        assert int(match[1]) <= steps
        assert tuple(map(int, match.groups()[1:])) == (
            stops["exact_repeat"], stops["sustained"], stops["certified"], stops["budget"])
        assert stops["sustained"] and stops["budget"], stops

    def test_full_rows_only_where_a_rule_can_read_them(self, monkeypatch):
        # A column is scored in full only while it is loud: from W on, once
        # its period-1 residual has left tolerance.  A quiet column gets its
        # step and its print alone, and a print hit is checked against its
        # matched slot.  A rerun block scores every column in full from W on.
        import imclim.orbits

        residuals = imclim.orbits._residuals
        run_block = imclim.orbits._iterate_block
        calls = []
        watching = True

        def recording(window, current, slot, out):
            calls.append((watching, len(steps), np.array(window)))
            return residuals(window, current, slot, out)

        def run(op, block, p, cap, windows, watch):
            nonlocal watching
            watching = watch
            steps.clear()  # steps count from the run's start
            return run_block(op, block, p, cap, windows, watch)

        monkeypatch.setattr(imclim.orbits, "_residuals", recording)
        monkeypatch.setattr(imclim.orbits, "_iterate_block", run)
        checked = 0
        blocks = [(op, block, self.GRID[k % len(self.GRID)])
                  for k, (op, block) in enumerate(itertools.islice(self.blocks(2000), 40))]
        # rotations whose quiet columns leave tolerance between W and the
        # burn-in; with rho = 1 one can repeat its overwritten slot after 65 steps
        blocks += [(op, starts, params) for params in self.GRID[:2]
                   for op, starts in itertools.islice(self.rotations(params), 5, None, 3)]
        for op, block, params in blocks:
            first = max(1, params.burn_in - params.max_period + 1)  # W
            fires = first + params.max_period - 1  # no column is quiet after this step
            steps = []
            apply = op.apply
            monkeypatch.setattr(op, "apply", lambda f: steps.append(1) or apply(f))
            calls.clear()
            iterate_orbits(op, block, params)
            for watched, step, window in calls:
                if not watched or step > fires:
                    continue
                assert step >= first, (params, step)
                size = window.shape[2]
                for r in range(len(window)):
                    moves = [np.abs(window[r, :, s % size] - window[r, :, (s - 1) % size]).max()
                             for s in range(first, step + 1)]
                    assert not all(move <= params.tolerance for move in moves), (params, step)
                    checked += 1
        assert checked >= 1000

    def test_loud_steps_with_no_period_in_tolerance_skip_the_period_rule(
            self, monkeypatch, caplog, counterexample_op):
        # A loud step reads its window's per-slot maxima once.  With no slot
        # but the newest within tolerance (nan never is), and not on the
        # budget's last step, every loud streak ends and no rule runs: a
        # skipped step.  Otherwise the streak and fire rules run: a scored
        # step, which the debug line counts as "scored in full".  Each loud
        # step calls _residuals once, so skipped = calls - scored.
        import imclim.orbits

        residuals = imclim.orbits._residuals
        run_block = imclim.orbits._iterate_block
        steps = []
        loud = []  # per loud step of the current run: whether some period is within tolerance
        budget = tolerance = None

        def recording(window, current, slot, out):
            with np.errstate(invalid="ignore"):  # inf - inf is nan, never within tolerance
                by_slot = np.abs(window - current.T[:, :, None]).max(axis=1)
                near = (np.delete(by_slot, slot, axis=1) <= tolerance).any()
            loud.append(bool(near) or len(steps) == budget)
            return residuals(window, current, slot, out)

        def run(op, block, p, cap, windows, watch):
            steps.clear()  # steps and loud steps count from the run's start
            loud.clear()
            return run_block(op, block, p, cap, windows, watch)

        monkeypatch.setattr(imclim.orbits, "_residuals", recording)
        monkeypatch.setattr(imclim.orbits, "_iterate_block", run)

        def counted(op, block, params, compare=True):
            """(skipped, scored) loud steps of the run that ends, checked against the log."""
            nonlocal budget, tolerance
            budget, tolerance = params.max_iters, params.tolerance
            apply = op.apply
            monkeypatch.setattr(op, "apply", lambda f: steps.append(1) or apply(f))
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="imclim.orbits"):
                results = iterate_orbits(op, block, params)
            records = [r for r in caplog.records if r.name == "imclim.orbits"]
            assert len(records) == 1
            scored = int(re.search(r"(\d+) scored in full", records[0].getMessage())[1])
            assert scored == sum(loud)
            if compare:
                reference = gen.all_slots_iterate_orbits(op, block, params)
                for a, b in zip(results, reference):
                    assert gen.orbit_result_bits(a) == gen.orbit_result_bits(b), params
            return len(loud) - scored, scored, results

        seeded = Counter()
        for k, (op, block) in enumerate(itertools.islice(self.blocks(2000), 40)):
            skipped, scored, _ = counted(op, block, self.GRID[k % len(self.GRID)])
            seeded.update(skipped=skipped, scored=scored)
        turning = Counter()
        for params in self.GRID[:2]:
            for op, starts in itertools.islice(self.rotations(params), 5, None, 3):
                skipped, scored, _ = counted(op, starts, params)
                turning.update(skipped=skipped, scored=scored)
        assert seeded["skipped"] and seeded["scored"], seeded
        assert turning["skipped"] and turning["scored"], turning

        # without its closed-form limit, the builtin's 8 budget columns are
        # loud from W = 137 and no period comes within tolerance: they skip on
        # every one of their 4,864 steps but the budget's last (the suite is
        # compared in the test below)
        twin = gen.UncertifiedCounterexample()
        _, suite = default_function_suite(twin, 20, np.random.default_rng(0))
        skipped, scored, results = counted(twin, suite, OrbitParams(), compare=False)
        assert sum(r.stop_reason == "budget" for r in results) == 8
        assert (skipped, scored) == (4863, 1)
        # the builtin itself certifies them on W: no loud step at all
        skipped, scored, results = counted(counterexample_op, suite, OrbitParams(), compare=False)
        assert sum(r.stop_reason == "certified" for r in results) == 8
        assert (skipped, scored) == (0, 0)

        # loud at W = 17, within tolerance on steps 18 and 19, out of it on
        # step 20 (a skip), then period 1 within it from step 21: the
        # sustained rule fires on step 24, not on 22 from stale streaks
        params = OrbitParams(burn_in=20, max_period=4, max_iters=60)
        tiny = params.tolerance / 1000
        op = gen.ScriptedOrbit([1.0] * 17 + [tiny] * 2 + [1.0] + [tiny] * 10)
        skipped, scored, results = counted(op, np.zeros((1, 1)), params)
        assert (skipped, scored) == (2, 6)
        assert (results[0].detected_period, results[0].stop_reason, results[0].iterations) == \
            (1, "sustained", 24)

    def test_the_builtin_suite_matches_the_all_slots_engine(self, counterexample_op):
        # the suite analyze runs on the builtin and a start whose first step
        # overflows, block against block at the default budget: without the
        # closed-form limit the 8 budget columns are the engine's long loud
        # path, and with it they are certified on W
        _, suite = default_function_suite(counterexample_op, 20, np.random.default_rng(0))
        params = OrbitParams()
        for op, ending in ((gen.UncertifiedCounterexample(), "budget"),
                           (counterexample_op, "certified")):
            reasons = Counter()
            for block in (suite, np.array([[1e308], [0.0], [-1e308]])):
                batch = iterate_orbits(op, block, params)
                reference = gen.all_slots_iterate_orbits(op, block, params)
                assert len(batch) == len(reference) == block.shape[1]
                for a, b in zip(batch, reference):
                    assert gen.orbit_result_bits(a) == gen.orbit_result_bits(b)
                    reasons[a.stop_reason] += 1
            assert suite.shape[1] == 23
            assert reasons[ending] == 8 and reasons["exact_repeat"], reasons

    def test_a_repeat_reports_the_smallest_period_within_tolerance(self, two_cycle_op):
        # the swap of 1 and 1 + 1e-12 repeats exactly at period 2 on step 2,
        # but its period-1 residual is within tolerance: period 1 it is
        f = np.array([1.0, 1.0 + 1e-12])
        step = (1.0 + 1e-12) - 1.0
        for params in (OrbitParams(), OrbitParams(burn_in=0, max_period=4), FAST):
            result = iterate_orbit(two_cycle_op, f, params)
            assert (result.detected_period, result.stop_reason, result.iterations) == \
                (1, "exact_repeat", 2)
            assert result.residual == step
            assert gen.orbit_result_bits(result) == \
                gen.orbit_result_bits(gen.reference_iterate_orbit(two_cycle_op, f, params))
            # beside a column that truly alternates, block against block
            block = np.column_stack([f, [1.0, 0.0], f[::-1]])
            batch = iterate_orbits(two_cycle_op, block, params)
            assert [r.detected_period for r in batch] == [1, 2, 1]
            reference = gen.all_slots_iterate_orbits(two_cycle_op, block, params)
            for a, b in zip(batch, reference):
                assert gen.orbit_result_bits(a) == gen.orbit_result_bits(b)

    def test_a_quiet_column_that_leaves_tolerance_then_repeats_reruns(self, monkeypatch):
        # the step leaves tolerance after W and the column repeats exactly
        # before W + max_period - 1: its period is 2, not the quiet period 1
        import imclim.orbits

        reruns = _count_reruns(monkeypatch)
        op = gen.DoublingIntoSwap()
        for params in (OrbitParams(), OrbitParams(burn_in=300, max_period=40)):
            first = max(1, params.burn_in - params.max_period + 1)
            leaving = params.tolerance * 2.0 ** -(first + 1)
            starts = np.array([[leaving, 0.5, 10.0, leaving / 2]])
            before = reruns["reruns"]
            batch = iterate_orbits(op, starts, params)
            assert reruns["reruns"] == before + 1
            reference = gen.all_slots_iterate_orbits(op, starts, params)
            for a, b in zip(batch, reference):
                assert gen.orbit_result_bits(a) == gen.orbit_result_bits(b)
            assert batch[0].detected_period == 2 and batch[0].stop_reason == "exact_repeat"
            assert first < batch[0].iterations < first + params.max_period - 1
            monkeypatch.setattr(imclim.orbits, "default_function_suite",
                                lambda *args: (["start"] * 4, starts))
            assert oracle_compare(op, "inconclusive", params).checks[0].period == 2
            monkeypatch.setattr(imclim.orbits, "default_function_suite", default_function_suite)
            assert reruns["reruns"] == before + 2

    def test_apply_runs_once_per_step_on_the_all_slots_blocks(self, monkeypatch, counterexample_op):
        # Every run, a stopped one's included, applies the operator once per
        # step, to the blocks (values and layout) that the engine scoring
        # every step applies it to, so a count of applies is a count of
        # steps.  A stopped run's blocks begin its rerun's.
        import imclim.orbits

        run_block = imclim.orbits._iterate_block
        runs = []

        def marking(op, block, p, cap, windows, watch):
            runs.append([])
            return run_block(op, block, p, cap, windows, watch)

        monkeypatch.setattr(imclim.orbits, "_iterate_block", marking)
        cases = [(op, block, self.GRID[k % len(self.GRID)])
                 for k, (op, block) in enumerate(itertools.islice(self.blocks(2000), 30))]
        cases += [(op, starts, params) for params in self.GRID[:2]
                  for op, starts in itertools.islice(self.rotations(params), 2, None, 4)]
        # the builtin's suite, certified on W, and its long loud path without the limit
        _, suite = default_function_suite(counterexample_op, 20, np.random.default_rng(0))
        cases += [(counterexample_op, suite, OrbitParams()),
                  (gen.UncertifiedCounterexample(), suite, OrbitParams())]
        stopped_runs = 0
        for op, block, params in cases:
            apply = op.apply
            log = runs  # each apply is recorded in the last list of ``log``
            monkeypatch.setattr(op, "apply", lambda f: log[-1].append(
                (f.shape, f.strides, f.tobytes())) or apply(f))
            runs.clear()
            results = iterate_orbits(op, block, params)
            log = [[]]
            gen.all_slots_iterate_orbits(op, block, params)
            *stopped, final = runs
            assert final == log[0]
            assert len(final) == max(r.iterations for r in results)
            for run in stopped:
                assert run == final[:len(run)]
            stopped_runs += len(stopped)
        assert stopped_runs >= 5, stopped_runs


class TestCertifiedLimit:
    """An operator's closed-form limit ends a column still moving on ``W`` (stop reason ``"certified"``)."""

    @staticmethod
    def starts(seed: int, count: int) -> np.ndarray:
        """The builtin's suite of ``count`` random columns, and starts with f(a) the largest."""
        rng = np.random.default_rng(seed)
        _, block = default_function_suite(CounterexampleOperator(), count, rng)
        block[0, 3::4] = block.max(axis=0)[3::4] + rng.random(len(block[0, 3::4]))
        return block

    def test_the_builtin_matches_both_references(self, counterexample_op):
        # one column against the scalar engine, blocks against the all-slots
        # engine, every field bit for bit, under every budget of the grid
        reasons = Counter()
        for k, params in enumerate(TestScoringWindow.GRID):
            block = self.starts(k, 40)
            batch = iterate_orbits(counterexample_op, block, params)
            reference = gen.all_slots_iterate_orbits(counterexample_op, block, params)
            for f, a, b in zip(block.T, batch, reference):
                assert gen.orbit_result_bits(a) == gen.orbit_result_bits(b), params
                one = iterate_orbit(counterexample_op, f, params)
                ref = gen.reference_iterate_orbit(counterexample_op, f, params)
                assert gen.orbit_result_bits(one) == gen.orbit_result_bits(ref), params
                reasons[a.stop_reason] += 1
        assert set(reasons) == {"exact_repeat", "sustained", "certified", "budget"}, reasons

    def test_a_certified_result_carries_the_limit(self, counterexample_op):
        params = OrbitParams()
        first = params.burn_in - params.max_period + 1  # W
        f = np.array([0.0, 1.0, 0.0])
        result = iterate_orbit(counterexample_op, f, params)
        assert (result.detected_period, result.stop_reason, result.iterations) == \
            (1, "certified", first)
        assert result.converged
        assert result.limit.tolist() == [0.0, 1.0, 1.0]
        assert result.limit is result.certified_limit
        assert result.limit_cycle == (result.certified_limit,)
        assert not result.limit.flags.writeable
        # the window and the residual are the run's own: the last iterates and
        # the period-1 residual on W, still far outside tolerance
        replay = list(replay_orbit(counterexample_op, f, first))
        assert _bits(replay[-params.max_period - 1:]) == _bits(result.iterates_kept)
        assert result.residual == np.abs(replay[-1] - replay[-2]).max() > params.tolerance
        # the twin without a limit runs the same iterates to its budget
        twin = iterate_orbit(gen.UncertifiedCounterexample(), f, params)
        assert (twin.detected_period, twin.stop_reason, twin.certified_limit) == \
            (None, "budget", None)

    def test_only_columns_moving_on_w_change(self, counterexample_op):
        # Against the twin without a limit: a column that ends before W, or
        # is within tolerance on W, keeps every bit; the others end on W.
        changed = Counter()
        for k, params in enumerate(TestScoringWindow.GRID):
            first = max(1, params.burn_in - params.max_period + 1)
            block = self.starts(10 + k, 40)
            twin = iterate_orbits(gen.UncertifiedCounterexample(), block, params)
            for f, a, b in zip(block.T, iterate_orbits(counterexample_op, block, params), twin):
                replay = list(replay_orbit(counterexample_op, f, min(first, b.iterations)))
                moving = b.iterations >= first and \
                    not np.abs(replay[-1] - replay[-2]).max() <= params.tolerance
                changed[moving] += 1
                if moving:
                    assert (a.stop_reason, a.iterations, a.detected_period) == \
                        ("certified", first, 1)
                else:
                    assert gen.orbit_result_bits(a) == gen.orbit_result_bits(b), params
        assert changed[True] >= 50 and changed[False] >= 50, changed

    def test_the_rerun_certifies_the_same_columns(self, counterexample_op):
        # the certificate reads the tolerance, not which columns are quiet
        import imclim.orbits

        for k, params in enumerate(TestScoringWindow.GRID):
            block = self.starts(20 + k, 40)
            cap = min(params.max_period, params.max_iters)
            watched, rerun = (imclim.orbits._iterate_block(counterexample_op, block, params, cap,
                                                           True, watch) for watch in (True, False))
            assert [gen.orbit_result_bits(r) for r in watched] == \
                [gen.orbit_result_bits(r) for r in rerun]

    def test_the_suite_reads_the_certified_period(self, counterexample_op):
        _, suite = default_function_suite(counterexample_op, 20, np.random.default_rng(0))
        comparison = oracle_compare(counterexample_op, "inconclusive", extra_random=20)
        assert [c.period for c in comparison.checks] == \
            [r.detected_period for r in iterate_orbits(counterexample_op, suite)] == [1] * 23


class TestCycleClosure:
    def test_detected_cycles_close_under_application(self):
        rng = random.Random(65)
        for _ in range(80):
            op = gen.random_operator(rng)
            f = gen.random_float_function(rng, op.n)
            result = iterate_orbit(op, f, FAST)
            if result.detected_period is None:
                continue
            cycle = result.limit_cycle
            tol = 2 * FAST.tolerance
            for i, element in enumerate(cycle):
                image = op.apply(element)
                target = cycle[(i + 1) % len(cycle)]
                assert float(np.max(np.abs(image - target))) <= tol


class TestNonExpansiveness:
    def test_exact_sup_norm_contraction(self):
        rng = random.Random(62)
        for _ in range(200):
            op = gen.random_operator(rng)
            f = gen.random_rational_function(rng, op.n)
            g = gen.random_rational_function(rng, op.n)
            lhs = max(
                abs(a - b)
                for a, b in zip(gen.apply_exact(op, f), gen.apply_exact(op, g))
            )
            rhs = max(abs(a - b) for a, b in zip(f, g))
            assert lhs <= rhs


class TestRegularClassLimit:
    def test_singleton_class_returns_value(self, running_op):
        phi = gen.orbit_limit_on_regular_class(running_op, {0}, [3.5, 0, 0, 0, 0])
        assert phi == pytest.approx(3.5)

    def test_max_operator_pair(self, running_op):
        part = partition_states(running_op.supports())
        level2 = gen.restrict_to_nonabs(running_op, part)
        phi = gen.orbit_limit_on_regular_class(level2, {0, 1}, [0.0, 1.0])
        assert phi == pytest.approx(1.0)

    def test_strict_domination_on_random_regular_classes(self):
        rng = random.Random(63)
        checked = 0
        while checked < 40:
            op = gen.random_single_class_operator(rng)
            from imclim import build_graph, communication_classes

            classes = communication_classes(build_graph(op.supports()))
            if classes[0].cyclicity != 1:
                continue
            f = np.array([rng.random() for _ in range(op.n)])
            if op.n > 1 and f.max() - f.min() < 1e-3:
                continue
            phi = gen.orbit_limit_on_regular_class(op, classes[0].members, f, FAST)
            assert phi >= f.min() - 1e-9
            if op.n > 1:
                assert phi > f.min()
            checked += 1

    def test_given_classes_build_no_structure(self, running_op, monkeypatch):
        from imclim import build_graph, communication_classes

        classes = communication_classes(build_graph(running_op.supports()))

        def forbidden(*args, **kwargs):
            raise AssertionError("structure computed again")

        for name in ("build_graph", "communication_classes", "cyclicity"):
            monkeypatch.setattr(gen, name, forbidden)
        phi = gen.orbit_limit_on_regular_class(
            running_op, {1}, [0, 2.5, 0, 0, 0], classes=classes
        )
        assert phi == pytest.approx(2.5)

    def test_non_regular_class_rejected(self, two_cycle_op):
        with pytest.raises(Exception) as exc_info:
            gen.orbit_limit_on_regular_class(two_cycle_op, {0, 1}, [1.0, 0.0], FAST)
        assert exc_info.type.__name__ in ("PreconditionError", "AssertionError")

    def test_constant_limit_across_states_on_regular_single_class(self):
        rng = random.Random(64)
        checked = 0
        while checked < 40:
            op = gen.random_single_class_operator(rng)
            from imclim import build_graph

            if gen.cyclicity(build_graph(op.supports()), range(op.n)) != 1:
                continue
            f = gen.random_float_function(rng, op.n)
            result = iterate_orbit(op, f, FAST)
            assert result.converged
            assert result.limit.max() - result.limit.min() <= 1e-8
            checked += 1


class TestOracleCompare:
    def test_running_yes_agrees(self, running_op):
        report = oracle_compare(running_op, "yes", params=FAST, extra_random=6)
        assert report.agrees
        assert all(c.converged for c in report.checks)

    def test_two_cycle_no_agrees(self, delayed_cycle_op):
        report = oracle_compare(delayed_cycle_op, "no", params=FAST, extra_random=6)
        assert report.agrees
        assert any(c.period == 2 for c in report.checks)

    def test_inconclusive_carries_note(self, counterexample_op):
        params = OrbitParams(tolerance=1e-3, burn_in=50, max_iters=20000, max_period=8)
        report = oracle_compare(counterexample_op, "inconclusive", params=params, extra_random=4)
        assert report.agrees
        assert report.note is not None
        assert all(c.converged for c in report.checks)

    def test_yes_with_cycling_orbit_disagrees(self, two_cycle_op):
        report = oracle_compare(two_cycle_op, "yes", params=FAST, extra_random=0)
        assert not report.agrees
        assert report.discrepancies

    def test_suite_contents(self, running_op):
        labels, starts = default_function_suite(running_op, 4, np.random.default_rng(1))
        assert labels[:5] == [f"indicator:{l}" for l in running_op.space.labels]
        assert len(labels) == 9
        # one (n, n + extra) block: the indicators, then the random columns in draw order
        assert starts.shape == (5, 9) and np.array_equal(starts[:, :5], np.eye(5))
        rng = np.random.default_rng(1)
        assert np.array_equal(starts[:, 5], rng.random(5))
        assert np.array_equal(starts[:, 6], rng.integers(0, 2, 5))

    def test_negative_extra_refused(self, running_op):
        for extra in (-1, 2.5):
            with pytest.raises(PreconditionError, match=">= 0"):
                default_function_suite(running_op, extra, np.random.default_rng(0))

    @pytest.mark.parametrize("make", [
        lambda op: OrbitParams(max_iters=2.5),
        lambda op: OrbitParams(burn_in=1.5),
        lambda op: OrbitParams(max_period=True),
        lambda op: OrbitParams(tolerance="1e-9"),
        lambda op: OrbitParams(tolerance=float("nan")),
        lambda op: analyze(op, suite_random=2.5),
        lambda op: analyze(op, suite_random="3"),
        lambda op: analyze(op, suite_random=1, seed=1.5),
        lambda op: analyze(op, seed=True),
        lambda op: oracle_compare(op, "yes", seed=-1),
    ], ids=["float-budget", "float-burn-in", "bool-period", "str-tolerance", "nan-tolerance",
            "float-suite", "str-suite", "float-seed", "bool-seed", "negative-seed"])
    def test_counts_that_are_no_integers_are_refused(self, running_op, make):
        with pytest.raises(PreconditionError):
            make(running_op)

    def test_numpy_scalars_and_infinite_tolerance_are_accepted(self, two_cycle_op):
        params = OrbitParams(tolerance=np.float64(1e-9), burn_in=np.int64(0),
                             max_iters=np.int64(10), max_period=np.int64(4))
        assert iterate_orbit(two_cycle_op, [1.0, 0.0], params).detected_period == 2
        assert iterate_orbit(two_cycle_op, [1.0, 0.0], OrbitParams(tolerance=float("inf"))).converged
        report = analyze(two_cycle_op, suite_random=np.int64(1), seed=np.int64(2))
        assert len(report.orbit_evidence.checks) == two_cycle_op.n + 1

    def test_checks_carry_the_engine_periods_and_build_no_results(self, monkeypatch):
        import imclim.orbits

        def no_results(*args, **kwargs):
            raise AssertionError("oracle_compare built an OrbitResult")

        columns = 0
        periods = Counter()
        for k, (op, block) in enumerate(TestScoringWindow.blocks(2000)):
            params = TestScoringWindow.GRID[k % len(TestScoringWindow.GRID)]
            # the blocks are the suites oracle_compare draws with extra_random=8, seed=k
            labels, _ = default_function_suite(op, 8, np.random.default_rng(k))
            expected = [(label, r.detected_period, r.converged)
                        for label, r in zip(labels, iterate_orbits(op, block, params))]
            monkeypatch.setattr(imclim.orbits, "OrbitResult", no_results)
            comparison = oracle_compare(op, "inconclusive", params, extra_random=8, seed=k)
            monkeypatch.undo()
            assert [(c.label, c.period, c.converged) for c in comparison.checks] == expected
            periods.update(period for _, period, _ in expected)
            columns += len(expected)
        assert columns >= 2000
        assert {None, 1, 2} <= set(periods), periods


class TestWitnessSearch:
    def test_finds_cycle_on_swap(self, delayed_cycle_op):
        check = gen.float_cycle_witness(delayed_cycle_op, {1, 2}, FAST)
        assert check is not None
        assert check.period == 2
        # the certificate: the indicator of b, the phase of the class's first state
        certificate = analyze(delayed_cycle_op).witness_orbit
        assert certificate == OrbitCheck("cyclic-indicator:{b}", 2)
        assert not certificate.converged

    def test_no_witness_on_convergent_operator(self, running_op):
        assert gen.float_cycle_witness(running_op, {3, 4}, FAST) is None
        assert analyze(running_op).witness_orbit is None


class TestCertificate:
    def test_label_sorts_the_first_phase(self):
        check = search_cycle_witness(("a", "b", "c", "d"), ({3, 0}, {2}, {1}))
        assert check == OrbitCheck("cyclic-indicator:{a, d}", 3)
        assert not check.converged

    def test_planted_cyclic_classes_exact(self):
        """On C_0, T^n 1_{C_0} is 1 exactly when d | n, in exact arithmetic.

        At level 1 the orbit on the class is the indicator of phase -n mod d,
        so its period there is exactly d.
        """
        rng = random.Random(20261019)
        levels = Counter()
        for _ in range(2000):
            op, level, phases = gen.planted_cyclic_operator(rng)
            d = len(phases)
            levels[level] += 1
            report = analyze(op)
            witness = report.verdict.witness
            assert report.verdict.convergent == "no"
            assert (witness.level, witness.info.cyclicity) == (level, d)
            assert witness.info.phases == tuple(map(frozenset, phases))
            label = "cyclic-indicator:{" + ", ".join(gen.labels_of(op.space, phases[0])) + "}"
            assert report.witness_orbit == OrbitCheck(label, d)
            assert not report.witness_orbit.converged
            g = tuple(F(int(i in phases[0])) for i in range(op.n))
            for n in range(1, 3 * d + 1):
                g = gen.apply_exact(op, g)
                if n % d == 0:
                    assert all(g[i] == 1 for i in phases[0])
                else:
                    assert all(g[i] < 1 for i in phases[0])
                if level == 1:
                    hot = phases[-n % d]
                    assert all(g[i] == int(i in hot) for p in phases for i in p)
        assert levels[2] + levels[3] >= 2000 / 3, levels
