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
``W = burn_in - max_period + 1``.  Each column keeps a fingerprint of every
iterate beside the ring, one integer product per step.  A *quiet* column is
one that only an exact repeat can end: its new print is compared with the
contiguous written print slots, with no per-step gather, and it has its
residuals taken only when the print equals a past one, and retires only if
one is exactly zero, so a collision, or a match on the slot about to be
overwritten, costs time and never a result.

Every column is quiet before ``W``.  On step ``W`` every column has its
residuals against all ring slots taken, and a column stays quiet only if
its period-1 residual is within tolerance there.  From then on a quiet
column takes its period-1 residual and its print on every step, and is
scored in full only on a print hit, on ``W + max_period - 1`` and on the
budget's last step: no streak from ``W`` reaches ``max_period`` sooner.  On
``W + max_period - 1`` its period-1 streak is set to ``max_period - 1``,
its true streak, since that residual was checked on every step since
``W``, and the one sustained rule certifies period 1.  A step with every
running column quiet and no print hit takes nothing more.  If a quiet
column's period-1 residual leaves tolerance after ``W`` (or is nan), the
run stops and the block reruns from its starts with no column quiet after
``W``.  Both runs retire the same columns on the same steps, so ``apply``
sees the same blocks and the results are those of scoring every step.
Reruns cost nothing in practice: a non-expansive operator's period-1
residual never grows in exact arithmetic, and the seeded suites of the
``orbit`` benchmark (260 blocks) and of 300 random, wide and planted cyclic
models under five budgets (1,505 blocks) rerun none.  Columns not quiet
after ``W`` are scored in full on every step.  Rows scored apart are
gathered over the written slots alone and differenced in place.  Residuals
are taken over the slots in storage order and only the small per-slot
result is reordered into period order, so no window is ever gathered.  Each
column is certified on its own and retires on its own step; the running
columns stay a contiguous prefix of the buffers.  A block takes as many
columns as fit their ring, residual and print buffers in ``_BLOCK_BYTES``
(at least one), so a wide suite runs as several blocks in turn.  Each block
logs one ``debug`` line on the ``imclim.orbits`` logger, for the run that
ends: its columns, steps, steps scored in full, whether it ran with quiet
columns after ``W`` ("with quiet columns") or was rerun, and stop reasons.
:func:`iterate_orbit` is the one-column case, and :func:`replay_orbit`
recomputes its iterates.  Past about 256k window slots numpy advises huge
pages, so the first write to a state's row faults in 2 MiB per buffer: a
200-state run ending at step 962 peaked at 835 MiB with a budget of 10**6,
and at 38 MiB with 10**3.

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

#: Odd multiplier of the per-state print weights ``(2i + 1) * _PRINT_ODD``:
#: odd, so the ``n`` weights are distinct and odd modulo ``2**64``.
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
    state's odd weight, as one integer product; ``values + 0.0`` turns -0.0
    into +0.0, so columns that compare equal get equal prints, whatever the
    order of summation.
    """
    return weights @ (values + 0.0).view(np.uint64)


def _residuals(ring: np.ndarray, current: np.ndarray, slot: int, scored: int,
               out: np.ndarray) -> np.ndarray:
    """``residuals[k, q - 1] = max|T^(t-q) f - T^t f|`` for ring row ``k``, ``q <= scored``.

    ``ring`` is ``(k, n, slots)``: ring rows, or a copy of their written
    slots; ``current`` the matching ``(n, k)`` iterates and ``slot`` the
    ring slot they are stored in.  The differences are taken over the slots
    in storage order, into ``out`` (which may be that copy), and only the
    small (row, slot) result is put in period order.
    """
    filled = scored + 1  # slots 0..t hold iterates 0..t until the ring wraps
    size = ring.shape[2]
    past = np.arange(slot - 1, slot - scored - 1, -1) % size  # the slot of each period
    diff = np.subtract(ring[:, :, :filled], current.T[:, :, None],
                       out=out[:len(ring), :, :filled])
    return np.abs(diff, out=diff).max(axis=1)[:, past]


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
    weights = np.arange(1, 2 * n, 2, dtype=np.uint64) * _PRINT_ODD
    prints[:, 0] = _fingerprint(block, weights)
    current = np.array(block)  # (n, running), contiguous, as ``apply`` sees it
    # the first step whose residuals the sustained rule can read; streaks start here
    scoring_from = max(1, p.burn_in - p.max_period + 1)
    # a quiet column's period-1 streak reaches max_period here, at or after the burn-in
    fires = scoring_from + p.max_period - 1
    best = np.zeros(m, dtype=np.int64)  # smallest period certified so far, 0 for none
    best_residual = np.zeros(m)  # with no period: the last step's period-1 residual
    # scored in full only on a print hit, W, ``fires`` and the last step; from
    # W on, only while its period-1 residual stays within tolerance
    quiet = np.ones(m, dtype=bool)
    some_quiet = True  # some running column is quiet
    column = np.arange(m)  # block column of each running column
    results: list = [None] * m
    scored_steps = 0
    stops = dict.fromkeys(("exact_repeat", "sustained", "budget"), 0)

    for iteration in range(1, p.max_iters + 1):
        slot = iteration % size
        previous, current = current, op.apply(current)
        running = len(column)
        ring[:running, :, slot] = current.T
        scored = min(iteration, cap)
        last = iteration == p.max_iters

        if some_quiet:
            if iteration > scoring_from:
                step = np.abs(current - previous).max(axis=0)  # the period-1 residuals
                if (quiet & ~(step <= p.tolerance)).any():  # nan leaves tolerance too
                    return None
            stamp = _fingerprint(current, weights)
            hit = (prints[:running, :min(iteration, size)] == stamp[:, None]).any(axis=1)
            prints[:running, slot] = stamp
            if iteration == fires:
                # a quiet column's period-1 residual was checked on every step
                # since W, so this is its true streak: the sustained rule fires
                streak[:running][quiet, 0] = p.max_period - 1
        if not some_quiet or last or iteration == scoring_from or iteration == fires:
            rows = np.arange(running)
        else:  # ``quiet <= hit``: all but the quiet columns without a print hit
            rows = (quiet <= hit).nonzero()[0]
            if not len(rows):
                continue

        scored_steps += 1
        if len(rows) == running:
            residuals = _residuals(ring[:running], current, slot, scored, diffs)
        else:  # only the written slots, each difference in place
            window = ring[rows, :, :scored + 1]
            residuals = _residuals(window, current[:, rows], slot, scored, window)
        within = residuals <= p.tolerance
        if iteration >= scoring_from:
            counts = streak[rows, :scored] + 1
            counts *= within
            streak[rows, :scored] = counts
        done = np.zeros(running, dtype=bool)
        exact = np.zeros(running, dtype=bool)
        # residuals[r] belongs to the running column rows[r]; both rules
        # need some period within tolerance
        if within.any():
            exact[rows] = (residuals == 0.0).any(axis=1)
            fired = exact[rows]
            if iteration >= p.burn_in:  # so iteration >= W, and ``counts`` is set
                fired = fired | (counts >= p.max_period).any(axis=1)
            if fired.any():
                candidate = within.argmax(axis=1) + 1  # smallest period within tolerance
                held_best = best[rows]
                better = (fired & ((held_best == 0) | (candidate < held_best))).nonzero()[0]
                best[rows[better]] = candidate[better]
                best_residual[rows[better]] = residuals[better, candidate[better] - 1]
                done[rows] = fired & ((best[rows] == 1) | exact[rows])
        if last:  # rows are all running columns
            none = best == 0
            best_residual[none] = residuals[none, 0]
            done[:] = True
        elif iteration == scoring_from:  # rows are all running columns
            quiet = within[:, 0] & ~done & watch
            some_quiet = bool(quiet.any())
        if not done.any():
            continue

        order = np.arange(slot - scored, slot + 1) % size  # oldest..newest
        for k in done.nonzero()[0]:
            period = int(best[k]) or None
            if exact[k]:
                reason = "exact_repeat"
            elif period == 1:
                reason = "sustained"
            else:
                reason = "budget"
            stops[reason] += 1
            if not windows:
                results[column[k]] = period
                continue
            kept = ring[k][:, order].T.copy()  # one array; the results hold its rows
            kept.setflags(write=False)
            results[column[k]] = OrbitResult(
                detected_period=period,
                residual=float(best_residual[k]),
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
        moved[holes] = keep[len(keep) - len(holes):]
        for hole, source in zip(holes, moved[holes]):
            ring[hole, :, :scored + 1] = ring[source, :, :scored + 1]
            prints[hole, :scored + 1] = prints[source, :scored + 1]
            streak[hole, :scored] = streak[source, :scored]
        current = current[:, moved]
        best, best_residual, quiet = best[moved], best_residual[moved], quiet[moved]
        some_quiet = some_quiet and bool(quiet.any())
        column = column[moved]
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
