"""Numerical orbit iteration with limit-cycle detection.

Orbits of an upper transition operator always settle on a finite cycle of
functions; this module iterates in double precision and reports the smallest
cycle length it can certify.  It is the independent numerical oracle behind
every symbolic verdict: a "convergent" verdict predicts that every orbit
detects period 1, a "not convergent" verdict predicts some sampled orbit with
a longer cycle.

Because the operator is sup-norm non-expansive, the residual
``max|T^n f - T^(n+p) f|`` is, in exact arithmetic, non-increasing in ``n``
for every fixed ``p``, so detection is monotone: once a candidate period
holds it keeps holding.  In floats a rounding step can raise a residual, and
an ``UpperOperator`` subclass need not be non-expansive at all; the engine
relies on monotonicity only to skip work, never for a result (see quiet
columns below).  The engine never reports divergence; exhausting the budget
only means "no cycle found within budget".

One engine, :func:`iterate_orbits`, iterates a whole suite of start
functions as the columns of one ``(n, m)`` block: each step is a single
``apply`` on the columns still running.  The last ``P + 1`` iterates, with
``P = min(max_period, max_iters)``, live in a ring buffer allocated once per
block.  The sustained rule can fire only at or after the burn-in, on a
streak of ``max_period`` steps, so it reads no residual before
``W = burn_in - max_period + 1`` and fires first on ``W + max_period - 1``.

A *quiet* column is one that only an exact repeat can end before then.
Every column is quiet before ``W``; on ``W`` a column stays quiet only if
its period-1 residual is within tolerance.  A quiet column keeps a
fingerprint of every iterate beside the ring, one integer product per step,
and its new print is compared with the contiguous written print slots, with
no per-step gather.  A print hit is checked against its matched slot alone,
and the column retires only on an exact repeat (every difference exactly
zero), so a collision, or a match on the slot about to be overwritten,
costs time and never a result.  On a repeat at period ``q`` the result is
the smallest period within tolerance, at most ``q``: only the residuals of
the periods below ``q`` are taken, and after ``W`` that is period 1.  A
step with every running column quiet and no print hit takes the ring write,
the prints, one comparison and one count.  After ``W`` it also takes the
quiet columns' period-1 residuals, in one reduce: if one leaves tolerance
(or is nan), the run stops and the block reruns from its starts with no
column quiet after ``W``.  On ``W + max_period - 1`` each quiet column left
certifies period 1 by the sustained rule, as its period-1 residual was
within tolerance on every step since ``W``; on the budget's last step it
ends with no period.  Reruns cost nothing in practice: a non-expansive
operator's period-1 residual never grows in exact arithmetic, and the
seeded suites of the ``orbit`` benchmark (260 blocks) and of 300 random,
wide and planted cyclic models under five budgets (1,505 blocks) rerun
none.

A *loud* column, one not quiet after ``W``, is scored in full on every
step, against all ring slots, and is not printed, as it never turns quiet
again.  Loud rows among quiet ones are gathered over the written slots
alone.  Residuals are taken over the slots in storage order and only the
small per-slot result is put in period order, so no window is ever
gathered.  Each column is certified on its own and retires on its own step;
the running columns stay a contiguous prefix of the buffers, compacted only
on a step that retires some column.  Both runs of a block retire the same
columns on the same steps, so ``apply`` sees the same blocks, values and
memory layout alike, and the results are those of scoring every period on
every step.  A block takes as many columns as fit their ring, residual and
print buffers in ``_BLOCK_BYTES`` (at least one), so a wide suite runs as
several blocks in turn.  Each block logs one ``debug`` line on the ``imclim.orbits`` logger,
for the run that ends: its columns, steps, steps with some column scored in
full, whether it ran with quiet columns after ``W`` ("with quiet columns")
or was rerun, and stop reasons.  :func:`iterate_orbit` is the one-column
case, and :func:`replay_orbit` recomputes its iterates.  Past about 256k
window slots numpy advises huge pages, so the first write to a state's row
faults in 2 MiB per buffer: a 200-state run ending at step 962 peaked at
835 MiB with a budget of 10**6, and at 38 MiB with 10**3.

The same loop serves :func:`oracle_compare`, which reads only each suite
function's period: there a retiring column leaves its period alone, and no
window or :class:`OrbitResult` is built.  Its suite is one ``(n, n + extra)``
start block from :func:`default_function_suite`, allocated before any random
column is drawn, so a suite too large for memory fails at once.

Orbit iteration reads no graph structure.  :func:`search_cycle_witness`
runs no orbit: it turns the cyclic subclasses of a "no" verdict's witness
class, found by the graph layer, into the certificate the report carries.
"""

from __future__ import annotations

import itertools
import logging
import numbers
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, PreconditionError, require_count
from .operators import UpperOperator

log = logging.getLogger(__name__)

#: Ring, residual and print buffer memory that sets how many columns one block
#: takes (at least one); wider suites run in several blocks, one after another.
_BLOCK_BYTES = 8 << 20

#: Odd multiplier of the per-state print weights ``2 * (2i + 1) * _PRINT_ODD``:
#: odd, so the ``n`` weights are distinct modulo ``2**64``.  Being even, a
#: weight times a sign bit, ``2**63``, wraps to 0: prints ignore signs.
_PRINT_ODD = np.uint64(0x9E3779B97F4A7C15)

#: What :func:`oracle_compare` and :func:`~imclim.report.analyze` require of a suite.
SUITE_SIZE_RULE = "the number of random suite functions must be >= 0"
SEED_RULE = "the seed must be a non-negative integer"


@dataclass(frozen=True)
class OrbitParams:
    """Iteration controls, one per orbit flag of ``imclim analyze`` and ``imclim
    orbit``; the defaults suit spaces with at most a few dozen states."""

    tolerance: float = 1e-9
    burn_in: int = 200
    max_iters: int = 5000
    max_period: int = 64

    def __post_init__(self):
        tol = self.tolerance
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not tol > 0:
            raise PreconditionError(f"tolerance must be a positive number, got {tol!r}")
        for name, least in (("burn_in", 0), ("max_iters", 1), ("max_period", 1)):
            require_count(getattr(self, name), least, f"{name} must be an integer >= {least}")


@dataclass(frozen=True)
class OrbitResult:
    """Outcome of one orbit run.

    ``detected_period`` is ``None`` when no cycle was certified within the
    budget -- never a claim of divergence; ``converged`` is period 1.  When
    a cycle is found, ``limit_cycle``, the last ``detected_period`` entries
    of ``iterates_kept``, holds its elements in iteration order, so consecutive
    entries map to each other under one application of the operator (and the
    last maps back to the first, within tolerance).  ``stop_reason`` says
    why the run ended: ``"exact_repeat"`` (some residual was exactly zero),
    ``"sustained"`` (period 1 certified by a residual sustained within
    tolerance) or ``"budget"`` (the iteration budget was spent, possibly after
    a period above one was certified).  ``iterates_kept`` is the run's last
    ``min(max_period, iterations) + 1`` iterates; no trace is kept, and
    ``replay_orbit(op, f, iterations)`` recomputes one.  The vectors of
    ``limit_cycle`` and ``iterates_kept`` are read-only rows of one array.
    """

    detected_period: int | None
    residual: float
    iterations: int
    stop_reason: str
    iterates_kept: tuple[np.ndarray, ...]
    params: OrbitParams

    @property
    def converged(self) -> bool:
        return self.detected_period == 1

    @property
    def limit_cycle(self) -> tuple[np.ndarray, ...] | None:
        period = self.detected_period
        return self.iterates_kept[-period:] if period else None

    @property
    def limit(self) -> np.ndarray | None:
        """The fixed point, when the orbit converged (period 1)."""
        return self.iterates_kept[-1] if self.converged else None


def _start_block(op: UpperOperator, f: Sequence[float]) -> np.ndarray:
    """``f`` as the contiguous ``(n, 1)`` block a one-column run starts from."""
    g = np.asarray(f, dtype=float)
    if g.shape != (op.n,):
        raise DimensionMismatchError(f"function has shape {g.shape}, expected ({op.n},)")
    return np.array(g[:, None])


def iterate_orbit(
    op: UpperOperator, f: Sequence[float], params: OrbitParams | None = None
) -> OrbitResult:
    """Iterate ``op`` on ``f``: the one-column case of :func:`iterate_orbits`."""
    return iterate_orbits(op, _start_block(op, f), params)[0]


def replay_orbit(op: UpperOperator, f: Sequence[float], steps: int) -> Iterator[np.ndarray]:
    """Yield ``f, Tf, ..., T^steps f``, the iterates of :func:`iterate_orbit` bit for bit.

    Each step applies ``op`` to the ``(n, 1)`` block a one-column run applies
    it to.  One iterate is held at a time, for a second ``apply`` per step.
    """
    current = _start_block(op, f)
    yield current[:, 0]
    for _ in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):  # as in the engine
            current = op.apply(current)
        yield current[:, 0]


def iterate_orbits(
    op: UpperOperator, starts: np.ndarray, params: OrbitParams | None = None
) -> tuple[OrbitResult, ...]:
    """Iterate ``op`` on every column of the ``(n, m)`` array ``starts``.

    Returns one result per column, in column order.  Each column is certified
    independently: a period ``q`` in ``1..max_period`` is certified once
    ``max|T^n f - T^(n+q) f|`` is exactly zero (iteration is deterministic, so
    an exact repeat is a genuine cycle) or, after the burn-in, once some
    period's residual has stayed within tolerance for ``max_period``
    consecutive steps; in either case the smallest period *currently* within
    tolerance is the certified one.  In exact arithmetic that choice is
    stable, because residuals never grow under a sup-norm non-expansive map;
    in floats a rounding step can raise one, and the results are still those
    of scoring every period on every step.

    A certificate for a period above one is recorded but not final: for a
    slowly damped alternation the even-step residual can cross the threshold
    long before the step residual, so iteration continues and a later, smaller
    certificate wins.  Only period one, an exact repeat (residuals are frozen
    from then on), or budget exhaustion end a column's run.

    Quiet columns skip most residuals, by the rule in the module docstring;
    the results are those of scoring every step.

    Raises :class:`PreconditionError` when the window of a budget cannot be
    allocated at all.
    """
    return tuple(_iterate(op, starts, params, windows=True))


def _iterate(
    op: UpperOperator, starts: np.ndarray, params: OrbitParams | None, windows: bool
) -> list:
    """Iterate the columns of ``starts`` block by block.

    With ``windows`` each column ends as its :class:`OrbitResult`; without,
    as its detected period alone (``None`` for none), building no window.
    """
    p = params or OrbitParams()
    block = np.asarray(starts, dtype=float)
    if block.ndim != 2 or block.shape[0] != op.n:
        raise DimensionMismatchError(f"starts have shape {block.shape}, expected ({op.n}, m)")
    if not np.isfinite(block).all():
        raise PreconditionError("function values must be finite")
    # periods scored never exceed the number of iterations run
    cap = min(p.max_period, p.max_iters)
    # per column: the ring's cap + 1 iterates, as many differences and prints
    width = max(1, _BLOCK_BYTES // ((2 * op.n + 1) * (cap + 1) * block.itemsize))
    results: list = []
    for lo in range(0, block.shape[1], width):
        part = block[:, lo:lo + width]
        # a quiet column leaving tolerance stops the first run: rerun with none after W
        results.extend(_iterate_block(op, part, p, cap, windows, watch=True)
                       or _iterate_block(op, part, p, cap, windows, watch=False))
    return results


def _fingerprint(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One ``uint64`` print per column of the ``(n, m)`` array ``values``.

    The wrapping sum over states of each value's bit pattern times its
    state's even weight, as one integer product.  The weights drop the sign
    bits, so -0.0 and +0.0 print alike and columns that compare equal get
    equal prints, whatever the order of summation; columns equal up to
    signs collide, which costs time and never a result.
    """
    return weights @ values.view(np.uint64)


def _residuals(window: np.ndarray, current: np.ndarray, slot: int,
               out: np.ndarray) -> np.ndarray:
    """``residuals[k, q - 1] = max|T^(t-q) f - T^t f|`` for row ``k``, every ``q`` in ``window``.

    ``window`` is ``(k, n, slots)``: ring rows' written slots, or a copy of
    them; ``current`` the matching ``(n, k)`` iterates, stored in ``slot``.
    The differences are taken over the slots in storage order, into ``out``,
    and only the small (row, slot) result is put in period order: slots
    ``slot - 1`` down to 0, then the last down to ``slot + 1``.
    """
    diff = np.subtract(window, current.T[:, :, None], out=out[:len(window), :, :window.shape[2]])
    by_slot = np.abs(diff, out=diff).max(axis=1)
    return np.concatenate((by_slot[:, :slot][:, ::-1], by_slot[:, slot + 1:][:, ::-1]), axis=1)


def _repeats(ring: np.ndarray, current: np.ndarray, hits: np.ndarray, rows: np.ndarray,
             slot: int, tolerance: float) -> tuple:
    """The columns among ``rows`` whose print hits are exact repeats.

    ``hits[r, s]`` says that the print of ``rows[r]``'s new iterate, stored
    in ring slot ``slot``, equals the one in slot ``s``.  Only matched slots
    are compared, but not the overwritten slot ``slot``.  Returns the
    running positions that repeat, the smallest period within tolerance of
    each (at most the repeat's, whose residual is 0) and its residual.
    ``inf - inf`` is nan, so equal infinities are no repeat, as under the
    residual rule.  A running column repeats at most one past iterate: two
    would be a repeat on an earlier step.
    """
    if slot < hits.shape[1]:
        hits[:, slot] = False  # the overwritten slot: an iterate beyond the window
    flat = np.flatnonzero(hits)
    hit, matched = flat // hits.shape[1], flat % hits.shape[1]
    rows = rows[hit]
    same = ~(ring[rows, :, matched] - current[:, rows].T).any(axis=1)
    rows, periods = rows[same], (slot - matched[same]) % ring.shape[2]
    if not len(rows) or periods.max() == 1:  # a repeat at period 1 is its residual, 0
        return rows, periods, np.zeros(len(rows))
    # a row's residual at its own period is 0, so the first within tolerance is no later
    past = (slot - np.arange(1, periods.max() + 1)) % ring.shape[2]  # the slot of each period
    below = np.abs(ring[rows[:, None], :, past] - current[:, rows].T[:, None]).max(axis=2)
    first = (below <= tolerance).argmax(axis=1)
    return rows, first + 1, below[np.arange(len(rows)), first]


def _split(quiet: np.ndarray) -> tuple:
    """The running positions of the quiet and of the loud columns, each as
    a slice when it is all of them and as ``None`` when it is none."""
    count = np.count_nonzero(quiet)
    if count == len(quiet):
        return slice(0, count), None
    if not count:
        return None, slice(0, len(quiet))
    return quiet.nonzero()[0], (~quiet).nonzero()[0]


@np.errstate(over="ignore", invalid="ignore")  # inf - inf residuals are nan, silently
def _iterate_block(
    op: UpperOperator, block: np.ndarray, p: OrbitParams, cap: int, windows: bool, watch: bool
) -> list | None:
    """One block's results; with ``watch`` the columns within tolerance at
    ``W`` stay quiet, and the run ends as ``None`` once one leaves it."""
    n, m = block.shape
    size = cap + 1  # the window: the newest iterate and up to ``cap`` before it
    # The iterate t of the running column at position k sits at
    # ring[k, :, t % size] and its print at prints[k, t % size].  Columns
    # lead, so the running ones stay a contiguous prefix: a retired column's
    # place is refilled from beyond the prefix, and the big buffers are
    # allocated once per block.
    try:
        ring = np.empty((m, n, size))
        diffs = np.empty_like(ring)  # reused every step: fresh temporaries cost page faults
        prints = np.empty((m, size), dtype=np.uint64)
        streak = np.zeros((m, cap), dtype=np.int64)  # [k, q - 1]: period q
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's largest dimension
        raise PreconditionError(
            f"the orbit window of max_period={p.max_period}, max_iters={p.max_iters} "
            f"over {n} states does not fit in memory; lower the budget"
        ) from exc
    ring[:, :, 0] = block.T
    weights = np.arange(2, 4 * n, 4, dtype=np.uint64) * _PRINT_ODD
    prints[:, 0] = _fingerprint(block, weights)
    current = np.array(block)  # (n, running), contiguous, as ``apply`` sees it
    tol, budget, burn_in, max_period = p.tolerance, p.max_iters, p.burn_in, p.max_period
    # the first step whose residuals the sustained rule can read; streaks start here
    scoring_from = max(1, burn_in - max_period + 1)
    # a quiet column's period-1 streak reaches max_period here, at or after the burn-in
    fires = scoring_from + max_period - 1
    # by block column, for the loud columns: the smallest period certified so
    # far (0 for none) and its residual
    best = np.zeros(m, dtype=np.int64)
    best_residual = np.zeros(m)
    # A quiet column ends only by an exact repeat, on ``fires`` or on the
    # last step; from W on it stays quiet only while its period-1 residual
    # stays within tolerance.  Loud ones, none before W, are scored in full.
    quiet = np.ones(m, dtype=bool)
    quiet_rows, loud_rows = _split(quiet)
    column = np.arange(m)  # block column of each running column
    results: list = [None] * m
    scored_steps = 0
    stops = dict.fromkeys(("exact_repeat", "sustained", "budget"), 0)

    for iteration in range(1, budget + 1):
        slot = iteration % size
        previous, current = current, op.apply(current)
        running = len(column)
        ring[:running, :, slot] = current.T
        last = iteration == budget
        # the columns that end on this step: (running positions, then per
        # column its period or 0, its residual and whether it repeated exactly)
        ending = []

        if iteration == scoring_from:
            quiet = (np.abs(current - previous).max(axis=0) <= tol) & watch
            quiet_rows, loud_rows = _split(quiet)
        elif iteration > scoring_from and quiet_rows is not None:
            # one reduce over the quiet columns' period-1 residuals; nan leaves tolerance too
            if not np.abs(current[:, quiet_rows] - previous[:, quiet_rows]).max() <= tol:
                return None
        if quiet_rows is not None:
            stamp = _fingerprint(current[:, quiet_rows], weights)
            hits = prints[quiet_rows, :min(iteration, size)] == stamp[:, None]
            prints[quiet_rows, slot] = stamp
            if np.count_nonzero(hits):
                rows, period, residual = _repeats(
                    ring, current, hits, np.arange(running)[quiet_rows], slot, tol)
                if len(rows):
                    ending.append((rows, period.tolist(), residual.tolist(),
                                   itertools.repeat(True)))
        if loud_rows is not None:
            scored_steps += 1
            scored = min(iteration, cap)
            residuals = _residuals(ring[loud_rows, :, :scored + 1], current[:, loud_rows],
                                   slot, diffs)
            within = residuals <= tol
            counts = streak[loud_rows, :scored] + 1
            counts *= within
            streak[loud_rows, :scored] = counts
            # both rules need some period within tolerance
            if within.any() or last:
                rows = np.arange(running)[loud_rows]
                cols = column[rows]
                zero = (residuals == 0.0).any(axis=1)
                fired = zero
                if iteration >= burn_in:  # so iteration >= W, and every streak counts from W
                    fired = fired | (counts >= max_period).any(axis=1)
                held = best[cols]
                if fired.any():
                    candidate = within.argmax(axis=1) + 1  # smallest period within tolerance
                    better = fired & ((held == 0) | (candidate < held))
                    held[better] = candidate[better]
                    best[cols] = held
                    best_residual[cols[better]] = residuals[better, candidate[better] - 1]
                ends = fired & ((held == 1) | zero)
                if last:
                    none = held == 0
                    best_residual[cols[none]] = residuals[none, 0]
                    ends[:] = True
                if ends.any():
                    ending.append((rows[ends], held[ends].tolist(),
                                   best_residual[cols[ends]].tolist(), zero[ends].tolist()))
        if quiet_rows is not None and (iteration == fires or last):
            # the quiet columns no repeat ended: period 1 on ``fires``, as
            # their period-1 residual was within tolerance on every step
            # since W, and none on the last step
            rows = np.arange(running)[quiet_rows]
            for ended in ending:
                rows = np.setdiff1d(rows, ended[0], assume_unique=True)
            if len(rows):
                residual = np.abs(current[:, rows] - previous[:, rows]).max(axis=0)
                ending.append((rows, itertools.repeat(int(iteration == fires)),
                               residual.tolist(), itertools.repeat(False)))
        if not ending:
            continue

        done = np.zeros(running, dtype=bool)
        scored = min(iteration, cap)
        if windows:
            order = np.arange(slot - scored, slot + 1) % size  # oldest..newest
        for rows, periods, residuals, repeats in ending:
            done[rows] = True
            for k, col, period, residual, exact in zip(
                    rows.tolist(), column[rows].tolist(), periods, residuals, repeats):
                period = period or None
                if exact:
                    reason = "exact_repeat"
                elif period == 1:
                    reason = "sustained"
                else:
                    reason = "budget"
                stops[reason] += 1
                if not windows:
                    results[col] = period
                    continue
                kept = ring[k][:, order].T.copy()  # one array; the results hold its rows
                kept.setflags(write=False)
                results[col] = OrbitResult(
                    detected_period=period,
                    residual=residual,
                    iterations=iteration,
                    stop_reason=reason,
                    iterates_kept=tuple(kept),
                    params=p,
                )
        keep = (~done).nonzero()[0]
        if not len(keep):
            break
        # the new prefix keeps its running columns in place; each retired
        # place in it takes a running column from beyond it, copying only
        # the slots and periods written so far
        moved = np.arange(len(keep))
        holes = done[:len(keep)].nonzero()[0]
        if len(holes):
            sources = keep[len(keep) - len(holes):]
            moved[holes] = sources
            ring[holes, :, :scored + 1] = ring[sources, :, :scored + 1]
            if quiet_rows is not None:
                prints[holes, :scored + 1] = prints[sources, :scored + 1]
            if loud_rows is not None:
                streak[holes, :scored] = streak[sources, :scored]
        current = current[:, moved]
        column = column[moved]
        quiet = quiet[moved]
        quiet_rows, loud_rows = _split(quiet)
    log.debug("orbit block: %d columns, %d steps, %d scored in full, %s; "
              "stops: exact_repeat %d, sustained %d, budget %d", m, iteration, scored_steps,
              "with quiet columns" if watch else "rerun without quiet columns",
              stops["exact_repeat"], stops["sustained"], stops["budget"])
    return results


@dataclass(frozen=True)
class OrbitCheck:
    """A labelled function and its period: a suite entry as the engine saw it, or a certificate."""

    label: str
    period: int | None

    @property
    def converged(self) -> bool:
        return self.period == 1


@dataclass(frozen=True)
class OrbitComparison:
    """Numerical cross-check of a symbolic convergence verdict."""

    verdict: str
    checks: tuple[OrbitCheck, ...]
    discrepancies: tuple[str, ...]

    @property
    def agrees(self) -> bool:
        return not self.discrepancies

    @property
    def note(self) -> str | None:
        """Why an "inconclusive" verdict cannot disagree, for that verdict alone."""
        if self.verdict != "inconclusive":
            return None
        return (
            "the regular-levels condition failed without a necessity guarantee; "
            "sampled orbits may well all converge"
        )


def default_function_suite(
    op: UpperOperator, extra: int, rng: np.random.Generator
) -> tuple[list[str], np.ndarray]:
    """All single-state indicators plus ``extra`` random functions, as the
    columns of one ``(n, n + extra)`` start block, and their labels.

    Random columns alternate between uniform draws and random 0/1 vectors,
    drawn from ``rng`` in column order; the latter are much better at
    exposing alternating limit cycles.  The block is allocated before any
    draw.  Raises :class:`PreconditionError` for an ``extra`` that is no
    integer >= 0 and for a block that cannot be allocated.
    """
    require_count(extra, 0, SUITE_SIZE_RULE)
    n = op.n
    try:
        starts = np.zeros((n, n + extra))
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's largest array
        raise PreconditionError(
            f"the start block of {extra} random functions over {n} states does not "
            "fit in memory; lower the number of random functions"
        ) from exc
    starts[range(n), range(n)] = 1.0
    for k in range(extra):
        starts[:, n + k] = rng.random(n) if k % 2 == 0 else rng.integers(0, 2, n)
    labels = [f"indicator:{label}" for label in op.space.labels]
    return labels + [f"random:{k}" for k in range(extra)], starts


def oracle_compare(
    op: UpperOperator,
    verdict: str,
    params: OrbitParams | None = None,
    extra_random: int = 10,
    seed: int = 0,
) -> OrbitComparison:
    """Run the default orbit suite against a verdict.

    The suite runs through the loop of :func:`iterate_orbits`, in blocks of
    as many columns as ``_BLOCK_BYTES`` holds (``imclim analyze --suite
    100000`` on a 5-state model runs 69), but keeps only each function's
    detected period: its checks equal the periods and ``converged`` flags
    that :func:`iterate_orbits` reports for the same starts, and no
    :class:`OrbitResult` is built.

    ``verdict`` is a :class:`~imclim.decomposition.Verdict`'s ``convergent``:
    ``"yes"``, ``"no"`` or ``"inconclusive"``.  A "yes" verdict disagrees with
    any suite orbit that does not certify period 1; a "no" verdict expects at
    least one suite orbit with a longer cycle, flagged softly because a finite
    suite cannot witness every function.  "inconclusive" verdicts are never
    contradicted by converging orbits.  Raises :class:`PreconditionError`
    for a ``seed`` or ``extra_random`` that is no integer >= 0.
    """
    if verdict not in ("yes", "no", "inconclusive"):
        raise PreconditionError(f"unknown verdict {verdict!r}")
    require_count(seed, 0, SEED_RULE)
    labels, starts = default_function_suite(op, extra_random, np.random.default_rng(seed))
    periods = _iterate(op, starts, params, windows=False)
    checks = tuple(map(OrbitCheck, labels, periods))
    discrepancies = []
    if verdict == "yes":
        for check in checks:
            if not check.converged:
                seen = "no cycle within budget" if check.period is None else f"period {check.period}"
                discrepancies.append(
                    f"verdict is yes but the orbit of {check.label} saw {seen}"
                )
    elif verdict == "no":
        if not any(c.period is not None and c.period >= 2 for c in checks):
            discrepancies.append(
                "verdict is no but no suite orbit exhibited a cycle of period >= 2 "
                "(a finite suite cannot witness every function)"
            )
    return OrbitComparison(verdict, checks, tuple(discrepancies))


def search_cycle_witness(labels: Sequence[str], phases: Sequence[Iterable[int]]) -> OrbitCheck:
    """The certificate of a "no" verdict, from its witness class's ``d >= 2`` cyclic subclasses.

    ``labels`` are the model's state labels and ``phases`` the class's
    cyclic subclasses in the model's indices, in edge order from ``C_0``,
    the one with the class's smallest state index.  ``T^n 1_{C_0}`` is
    exactly 1 on ``C_0`` when ``d`` divides ``n`` and a fixed margin below 1
    otherwise, so the orbit does not converge and ``d`` divides its limit
    period (exactly ``d`` on the class, for a level-1 class).  No orbit is
    run.
    """
    label = "cyclic-indicator:{" + ", ".join(sorted(labels[x] for x in phases[0])) + "}"
    return OrbitCheck(label, len(phases))
