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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InternalInvariantError,
    NotWellDefinedError,
    PreconditionError,
)
from .graphs import ClassInfo, build_graph, communication_classes
from .operators import UpperOperator


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
    last maps back to the first, within tolerance).
    """

    detected_period: int | None
    converged: bool
    limit_cycle: tuple[np.ndarray, ...] | None
    residual: float
    iterations: int
    iterates_kept: tuple[np.ndarray, ...]
    params: OrbitParams
    trace: tuple[np.ndarray, ...] | None = field(default=None, repr=False)

    @property
    def limit(self) -> np.ndarray | None:
        """The fixed point, when the orbit converged (period 1)."""
        if self.converged and self.limit_cycle:
            return self.limit_cycle[0]
        return None


def iterate_orbit(
    op: UpperOperator, f: Sequence[float], params: OrbitParams | None = None
) -> OrbitResult:
    """Iterate ``op`` on ``f`` and scan for the smallest limit-cycle period.

    A period ``q`` in ``1..max_period`` is certified once
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
    from then on), or budget exhaustion end the run.
    """
    p = params or OrbitParams()
    current = np.asarray(f, dtype=float)
    if current.shape != (op.n,):
        raise DimensionMismatchError(
            f"function has shape {current.shape}, expected ({op.n},)"
        )
    if not np.isfinite(current).all():
        raise PreconditionError("function values must be finite")

    window: list[np.ndarray] = [current.copy()]
    trace: list[np.ndarray] | None = [current.copy()] if p.keep_trace else None
    # periods scored never exceed the number of iterations run
    streak = np.zeros(min(p.max_period, p.max_iters) + 1, dtype=np.int64)
    last_step_residual = float("inf")
    best_period: int | None = None
    best_residual = float("inf")
    iterations_run = 0

    for iteration in range(1, p.max_iters + 1):
        iterations_run = iteration
        nxt = op.apply(window[-1])
        window.append(nxt)
        if len(window) > p.max_period + 1:
            window.pop(0)
        if trace is not None:
            trace.append(nxt.copy())

        history = np.stack(window[:-1])  # oldest..newest
        residuals = np.max(np.abs(history - nxt), axis=1)
        periods = np.arange(len(residuals), 0, -1)  # residuals[j] belongs to period L-1-j
        within = residuals <= p.tolerance
        streak[periods] = np.where(within, streak[periods] + 1, 0)
        last_step_residual = float(residuals[-1])

        exact_repeat = bool((residuals == 0.0).any())
        sustained = iteration >= p.burn_in and bool(
            (streak[periods] >= p.max_period).any()
        )
        if exact_repeat or sustained:
            eligible = periods[within]
            candidate = int(eligible.min())
            if best_period is None or candidate < best_period:
                best_period = candidate
                pos = int(np.flatnonzero(periods == candidate)[0])
                best_residual = float(residuals[pos])
            if best_period == 1 or exact_repeat:
                break

    found = best_period is not None
    return OrbitResult(
        detected_period=best_period,
        converged=best_period == 1,
        limit_cycle=tuple(v.copy() for v in window[-best_period:]) if found else None,
        residual=best_residual if found else last_step_residual,
        iterations=iterations_run,
        iterates_kept=tuple(v.copy() for v in window),
        params=p,
        trace=tuple(trace) if trace is not None else None,
    )


def orbit_limit_on_regular_class(
    op: UpperOperator,
    members: Iterable[int],
    f: Sequence[float],
    params: OrbitParams | None = None,
    classes: Sequence[ClassInfo] | None = None,
) -> float:
    """Constant limit of the orbit of ``f`` restricted to a regular maximal class.

    The restricted orbit of a regular class converges to a constant that
    dominates the minimum of the start function, strictly so when the start is
    not constant on the class; violations raise
    :class:`InternalInvariantError`, as does non-convergence within budget.
    Maximality and regularity are read from ``classes`` (computed once when not
    given), and the class is restricted through :meth:`UpperOperator.restrict`.
    """
    p = params or OrbitParams()
    target = frozenset(members)
    if classes is None:
        classes = communication_classes(build_graph(op.supports()))
    info = next((c for c in classes if c.members == target), None)
    name = "{" + ", ".join(op.space.labels_of(target)) + "}"
    if info is None or not info.is_maximal:
        raise PreconditionError(f"{name} is not a maximal communication class")
    if info.cyclicity != 1:
        raise PreconditionError(f"class {name} is not regular")
    keep = sorted(target)
    try:
        sub = op.restrict(keep)
    except NotWellDefinedError as exc:  # closedness guarantees non-empty sets
        raise InternalInvariantError(
            f"restriction to a maximal class failed unexpectedly: {exc}"
        ) from exc
    g = np.asarray(f, dtype=float)
    if g.shape != (op.n,):
        raise PreconditionError(f"function has shape {g.shape}, expected ({op.n},)")
    start = g[keep]
    result = iterate_orbit(sub, start, p)
    if not result.converged:
        raise InternalInvariantError(
            "orbit on a regular class failed to converge within budget"
        )
    limit = result.limit
    spread = float(limit.max() - limit.min())
    if spread > 10 * p.tolerance:
        raise InternalInvariantError(
            f"limit on a regular class must be constant; spread {spread:g}"
        )
    phi = float(limit.mean())
    lowest = float(start.min())
    if phi < lowest - p.tolerance:
        raise InternalInvariantError(
            f"limit {phi:g} fails to dominate the minimum {lowest:g}"
        )
    if float(start.max()) > lowest and not phi > lowest:
        raise InternalInvariantError(
            "limit must strictly dominate the minimum of a non-constant start"
        )
    return phi


@dataclass(frozen=True)
class OrbitCheck:
    """One suite entry: the function iterated and what the engine saw."""

    label: str
    function: tuple[float, ...]
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
    the latter are much better at exposing alternating limit cycles.
    """
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
    fn_suite: Sequence[tuple[str, Sequence[float]]] | None = None,
    params: OrbitParams | None = None,
    extra_random: int = 10,
    seed: int = 0,
) -> OrbitComparison:
    """Run an orbit suite against a convergence verdict.

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
    if fn_suite is None:
        fn_suite = default_function_suite(
            op, extra=extra_random, rng=np.random.default_rng(seed)
        )
    if not fn_suite:
        raise PreconditionError("the function suite must be non-empty")
    checks = []
    for label, vec in fn_suite:
        result = iterate_orbit(op, vec, params)
        checks.append(
            OrbitCheck(
                label=label,
                function=tuple(float(v) for v in np.asarray(vec, dtype=float)),
                period=result.detected_period,
                converged=result.converged,
            )
        )
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


def search_cycle_witness(
    op: UpperOperator,
    members: Iterable[int],
    params: OrbitParams | None = None,
    extra_random: int = 6,
    seed: int = 0,
) -> OrbitCheck | None:
    """Best-effort hunt for a sampled orbit with period >= 2 touching ``members``.

    Tries the indicators of the class states, then random 0/1 vectors
    supported on the class.  Returns the first find, or ``None``; a miss
    downgrades nothing, the symbolic verdict stands on its own.
    """
    member_list = sorted(set(members))
    rng = np.random.default_rng(seed)
    candidates: list[tuple[str, np.ndarray]] = []
    for i in member_list:
        vec = np.zeros(op.n)
        vec[i] = 1.0
        candidates.append((f"indicator:{op.space.labels[i]}", vec))
    for k in range(extra_random):
        vec = np.zeros(op.n)
        vec[member_list] = rng.integers(0, 2, len(member_list)).astype(float)
        candidates.append((f"random01:{k}", vec))
    for label, vec in candidates:
        result = iterate_orbit(op, vec, params)
        if result.detected_period is not None and result.detected_period >= 2:
            return OrbitCheck(
                label=label,
                function=tuple(float(v) for v in vec),
                period=result.detected_period,
                converged=False,
            )
    return None
