"""Numerical orbit iteration with limit-cycle detection.

Orbits of an upper transition operator always settle on a finite cycle of
functions; this module iterates in double precision and reports the smallest
cycle length it can certify.  It is the independent numerical oracle behind
every symbolic verdict: a "convergent" verdict predicts that every orbit
detects period 1, a "not convergent" verdict predicts some sampled orbit with
a longer cycle.

Because the operator is sup-norm non-expansive, the residual
``max|T^n f - T^(n+p) f|`` is non-increasing in ``n`` for every fixed ``p``,
so detection is monotone: once a candidate period holds it keeps holding.
The engine never reports divergence; exhausting the budget only means "no
cycle found within budget".

One engine, :func:`iterate_orbits`, iterates a whole suite of start
functions as the columns of one ``(n, m)`` block: each step is a single
``apply`` on the columns still running.  The last ``P + 1`` iterates, with
``P = min(max_period, max_iters)``, live in a ring buffer allocated once per
block.  The residuals against all ring slots are taken only where a rule can
read them: on every step from ``W = burn_in - max_period + 1`` on (a
sustained streak that can fire at or after the burn-in covers no earlier
step), and on the budget's last step.  Before ``W`` only an exact repeat can
end a column, and each column keeps a fingerprint of every iterate beside
the ring; a column whose new print equals a past one has its residuals
taken, and retires only if one is exactly zero, so a collision costs time
and never a result.  Residuals are taken over the slots in storage order and
only the small per-slot result is reordered into period order, so no window
is ever gathered.  Each column is certified on its own and retires on its
own step; the running columns stay a contiguous prefix of the buffers.  A
suite whose ring, residual and print buffers would exceed ``_BLOCK_BYTES``
runs as several blocks, one after another.  :func:`iterate_orbit` is the
one-column case.  A run writes only the ring slots it reaches, so a budget
far beyond the run's length costs address space, not memory.

Orbit iteration reads no graph structure.  :func:`search_cycle_witness`
runs no orbit: it turns the cyclic subclasses of a "no" verdict's witness
class, found by the graph layer, into the certificate the report carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, PreconditionError
from .operators import UpperOperator

#: Ring, residual and print buffer memory one block of columns may take; wider
#: suites run in several blocks, so memory stays bounded however many functions
#: are iterated.
_BLOCK_BYTES = 8 << 20

#: Odd multiplier of the per-state print weights ``(2i + 1) * _PRINT_ODD``:
#: odd, so the ``n`` weights are distinct and odd modulo ``2**64``.
_PRINT_ODD = np.uint64(0x9E3779B97F4A7C15)


@dataclass(frozen=True)
class OrbitParams:
    """Iteration controls; the defaults suit spaces with at most a few dozen states."""

    tolerance: float = 1e-9
    burn_in: int = 200
    max_iters: int = 5000
    max_period: int = 64
    keep_trace: bool = False

    def __post_init__(self):
        if not self.tolerance > 0:
            raise PreconditionError("tolerance must be positive")
        if self.max_period < 1 or self.max_iters < 1 or self.burn_in < 0:
            raise PreconditionError("iteration budgets must be positive")


@dataclass(frozen=True)
class OrbitResult:
    """Outcome of one orbit run.

    ``detected_period`` is ``None`` when no cycle was certified within the
    budget -- never a claim of divergence.  When a cycle is found,
    ``limit_cycle`` holds its elements in iteration order, so consecutive
    entries map to each other under one application of the operator (and the
    last maps back to the first, within tolerance).  ``stop_reason`` says
    why the run ended: ``"exact_repeat"`` (some residual was exactly zero),
    ``"sustained"`` (period 1 certified by a residual sustained within
    tolerance) or ``"budget"`` (the iteration budget was spent, possibly after
    a period above one was certified).  The vectors
    of ``limit_cycle`` and ``iterates_kept`` are read-only rows of one array.
    """

    detected_period: int | None
    converged: bool
    limit_cycle: tuple[np.ndarray, ...] | None
    residual: float
    iterations: int
    stop_reason: str
    iterates_kept: tuple[np.ndarray, ...]
    params: OrbitParams
    trace: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    @property
    def limit(self) -> np.ndarray | None:
        """The fixed point, when the orbit converged (period 1)."""
        if self.converged and self.limit_cycle:
            return self.limit_cycle[0]
        return None


def _as_function(op: UpperOperator, f: Sequence[float]) -> np.ndarray:
    g = np.asarray(f, dtype=float)
    if g.shape != (op.n,):
        raise DimensionMismatchError(f"function has shape {g.shape}, expected ({op.n},)")
    return g


def iterate_orbit(
    op: UpperOperator, f: Sequence[float], params: OrbitParams | None = None
) -> OrbitResult:
    """Iterate ``op`` on ``f``: the one-column case of :func:`iterate_orbits`."""
    return iterate_orbits(op, _as_function(op, f)[:, None], params)[0]


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
    tolerance is the certified one, which is stable because residuals never
    grow under a sup-norm non-expansive map.

    A certificate for a period above one is recorded but not final: for a
    slowly damped alternation the even-step residual can cross the threshold
    long before the step residual, so iteration continues and a later, smaller
    certificate wins.  Only period one, an exact repeat (residuals are frozen
    from then on), or budget exhaustion end a column's run.

    Residuals are scored on every step from ``W = burn_in - max_period + 1``
    on and on the budget's last step; streaks start there, which changes no
    certificate, since a streak of ``max_period`` steps ending at or after the
    burn-in lies wholly at or after ``W``.  Before ``W`` a column's residuals
    are taken only when the fingerprint of its new iterate equals that of one
    of the ring's past iterates: equal iterates always have equal prints, and
    the residuals decide, so the results are those of scoring every step.

    Raises :class:`PreconditionError` when the window of a budget cannot be
    allocated at all.
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
    results: list[OrbitResult] = []
    for lo in range(0, block.shape[1], width):
        results.extend(_iterate_block(op, block[:, lo:lo + width], p, cap))
    return tuple(results)


def _fingerprint(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One ``uint64`` print per column of the ``(n, m)`` array ``values``.

    The wrapping sum over states of each value's bit pattern times its
    state's odd weight; ``values + 0.0`` turns -0.0 into +0.0, so columns that
    compare equal get equal prints, whatever the order of summation.
    """
    return ((values + 0.0).view(np.uint64) * weights[:, None]).sum(axis=0)


def _residuals(ring: np.ndarray, current: np.ndarray, past: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """``residuals[k, q - 1] = max|T^(t-q) f - T^t f|`` for ring row ``k``.

    ``ring`` is ``(k, n, slots)`` and ``current`` the matching ``(n, k)``
    iterates; ``past[q - 1]`` is the slot of period ``q``.  The differences
    are taken over the slots in storage order, into ``out``, and only the
    small (row, slot) result is put in period order.
    """
    filled = len(past) + 1  # slots 0..t hold iterates 0..t until the ring wraps
    diff = np.subtract(ring[:, :, :filled], current.T[:, :, None],
                       out=out[:len(ring), :, :filled])
    return np.abs(diff, out=diff).max(axis=1)[:, past]


@np.errstate(over="ignore", invalid="ignore")  # inf - inf residuals are nan, silently
def _iterate_block(
    op: UpperOperator, block: np.ndarray, p: OrbitParams, cap: int
) -> list[OrbitResult]:
    n, m = block.shape
    size = cap + 1  # the window: the newest iterate and up to ``cap`` before it
    # The iterate t of the running column at position k sits at
    # ring[k, :, t % size] and its print at prints[k, t % size].  Columns
    # lead, so the running ones stay a contiguous prefix: a retired column's
    # place is refilled from beyond the prefix, and the big buffers are
    # allocated once per block.
    try:
        ring = np.empty((m, n, size))
        gaps = np.empty_like(ring)  # reused every step: fresh temporaries cost page faults
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
    best = np.zeros(m, dtype=np.int64)  # smallest period certified so far, 0 for none
    best_residual = np.zeros(m)
    column = np.arange(m)  # block column of each running column
    traces = [[v.copy()] for v in block.T] if p.keep_trace else None
    results: list[OrbitResult | None] = [None] * m

    for iteration in range(1, p.max_iters + 1):
        slot = iteration % size
        current = op.apply(current)
        running = len(column)
        ring[:running, :, slot] = current.T
        if traces is not None:
            for k, c in enumerate(column):
                traces[c].append(current[:, k].copy())

        scored = min(iteration, cap)
        past = np.arange(slot - 1, slot - scored - 1, -1) % size  # slot of each period 1..scored
        if iteration >= scoring_from or iteration == p.max_iters:
            rows = np.arange(running)
            residuals = _residuals(ring[:running], current, past, gaps)
            scoring = streak[:running, :scored]
            scoring += 1
            scoring *= residuals <= p.tolerance
        else:
            # only the exact-repeat rule can fire: score the columns whose print hit
            stamp = _fingerprint(current, weights)
            rows = (prints[:running, past] == stamp[:, None]).any(axis=1).nonzero()[0]
            prints[:running, slot] = stamp
            if not len(rows):
                continue
            residuals = _residuals(ring[rows], current[:, rows], past, gaps)
        within = residuals <= p.tolerance

        # residuals[r] belongs to the running column rows[r]; both rules need
        # some period within tolerance
        done = exact = np.zeros(len(rows), dtype=bool)
        if within.any():
            exact = (residuals == 0.0).any(axis=1)
            fired = exact
            if iteration >= p.burn_in:  # a scored step: rows are all running columns
                fired = exact | (scoring >= p.max_period).any(axis=1)
            if fired.any():
                candidate = within.argmax(axis=1) + 1  # smallest period within tolerance
                held = best[rows]
                better = (fired & ((held == 0) | (candidate < held))).nonzero()[0]
                best[rows[better]] = candidate[better]
                best_residual[rows[better]] = residuals[better, candidate[better] - 1]
                done = fired & ((best[rows] == 1) | exact)
        if iteration == p.max_iters:
            done = np.ones_like(done)
        elif not done.any():
            continue

        order = np.arange(slot - scored, slot + 1) % size  # oldest..newest
        for r in done.nonzero()[0]:
            k = rows[r]
            kept = ring[k][:, order].T.copy()  # one array; the results hold its rows
            kept.setflags(write=False)
            period = int(best[k]) or None
            if exact[r]:
                reason = "exact_repeat"
            elif period == 1:
                reason = "sustained"
            else:
                reason = "budget"
            results[column[k]] = OrbitResult(
                detected_period=period,
                converged=period == 1,
                limit_cycle=tuple(kept[-period:]) if period else None,
                residual=float(best_residual[k] if period else residuals[r, 0]),
                iterations=iteration,
                stop_reason=reason,
                iterates_kept=tuple(kept),
                params=p,
                trace=tuple(traces[column[k]]) if traces is not None else None,
            )
        retired = np.zeros(running, dtype=bool)
        retired[rows[done]] = True
        keep = (~retired).nonzero()[0]
        if not len(keep):
            break
        # the new prefix keeps its running columns in place; each retired
        # place in it takes a running column from beyond it, copying only
        # the slots and periods written so far
        moved = np.arange(len(keep))
        holes = retired[:len(keep)].nonzero()[0]
        moved[holes] = keep[len(keep) - len(holes):]
        for hole, source in zip(holes, moved[holes]):
            ring[hole, :, :scored + 1] = ring[source, :, :scored + 1]
            prints[hole, :scored + 1] = prints[source, :scored + 1]
            streak[hole, :scored] = streak[source, :scored]
        current = current[:, moved]
        best, best_residual = best[moved], best_residual[moved]
        column = column[moved]
    return results


@dataclass(frozen=True)
class OrbitCheck:
    """A labelled function and its period: a suite entry as the engine saw it, or a certificate."""

    label: str
    period: int | None
    converged: bool


@dataclass(frozen=True)
class OrbitComparison:
    """Numerical cross-check of a symbolic convergence verdict."""

    verdict: str
    checks: tuple[OrbitCheck, ...]
    discrepancies: tuple[str, ...]
    agrees: bool
    note: str | None = None


def default_function_suite(
    op: UpperOperator, extra: int = 0, rng: np.random.Generator | None = None
) -> list[tuple[str, np.ndarray]]:
    """All single-state indicators plus ``extra`` random functions.

    Random entries alternate between uniform draws and random 0/1 vectors;
    the latter are much better at exposing alternating limit cycles.  Raises
    :class:`PreconditionError` for a negative ``extra``.
    """
    if extra < 0:
        raise PreconditionError(f"the number of random suite functions must be >= 0, got {extra}")
    n = op.n
    suite: list[tuple[str, np.ndarray]] = []
    for i, label in enumerate(op.space.labels):
        vec = np.zeros(n)
        vec[i] = 1.0
        suite.append((f"indicator:{label}", vec))
    if extra:
        rng = rng or np.random.default_rng(0)
        for k in range(extra):
            if k % 2 == 0:
                vec = rng.random(n)
            else:
                vec = rng.integers(0, 2, n).astype(float)
            suite.append((f"random:{k}", vec))
    return suite


def oracle_compare(
    op: UpperOperator,
    verdict,
    params: OrbitParams | None = None,
    extra_random: int = 10,
    seed: int = 0,
) -> OrbitComparison:
    """Run the default orbit suite, as one :func:`iterate_orbits` call, against a verdict.

    ``verdict`` may be the string ``"yes"``/``"no"``/``"inconclusive"`` or any
    object with a ``convergent`` attribute.  A "yes" verdict disagrees with
    any suite orbit that does not certify period 1; a "no" verdict expects at
    least one suite orbit with a longer cycle, flagged softly because a finite
    suite cannot witness every function.  "inconclusive" verdicts are never
    contradicted by converging orbits.
    """
    verdict_str = getattr(verdict, "convergent", verdict)
    if verdict_str not in ("yes", "no", "inconclusive"):
        raise PreconditionError(f"unknown verdict {verdict_str!r}")
    suite = default_function_suite(op, extra=extra_random, rng=np.random.default_rng(seed))
    results = iterate_orbits(op, np.stack([vec for _, vec in suite], axis=1), params)
    checks = [
        OrbitCheck(label=label, period=result.detected_period, converged=result.converged)
        for (label, _), result in zip(suite, results)
    ]
    discrepancies = []
    note = None
    if verdict_str == "yes":
        for check in checks:
            if not check.converged:
                seen = "no cycle within budget" if check.period is None else f"period {check.period}"
                discrepancies.append(
                    f"verdict is yes but the orbit of {check.label} saw {seen}"
                )
    elif verdict_str == "no":
        if not any(c.period is not None and c.period >= 2 for c in checks):
            discrepancies.append(
                "verdict is no but no suite orbit exhibited a cycle of period >= 2 "
                "(a finite suite cannot witness every function)"
            )
    else:
        note = (
            "the regular-levels condition failed without a necessity guarantee; "
            "sampled orbits may well all converge"
        )
    return OrbitComparison(
        verdict=verdict_str,
        checks=tuple(checks),
        discrepancies=tuple(discrepancies),
        agrees=not discrepancies,
        note=note,
    )


def search_cycle_witness(phases: Sequence[Iterable[str]]) -> OrbitCheck:
    """The certificate of a "no" verdict, from its witness class's ``d >= 2`` cyclic subclasses.

    ``phases`` holds their labels in edge order from ``C_0``, the one with
    the class's smallest state index.  ``T^n 1_{C_0}`` is exactly 1 on ``C_0``
    when ``d`` divides ``n`` and a fixed margin below 1 otherwise, so the
    orbit does not converge and ``d`` divides its limit period (exactly
    ``d`` on the class, for a level-1 class).  No orbit is run.
    """
    label = "cyclic-indicator:{" + ", ".join(sorted(phases[0])) + "}"
    return OrbitCheck(label=label, period=len(phases), converged=False)
