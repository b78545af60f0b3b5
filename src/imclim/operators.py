"""Upper transition operators over finite state spaces.

The central object is :class:`UpperOperator`: a map on real-valued functions
over a finite state space that is subadditive, positively homogeneous and
dominated by the pointwise maximum.  Two implementations are provided:

* :class:`CredalOperator` -- driven by a finite set of candidate transition
  pmfs per state, as :func:`~imclim.modelio.parse_model` reads them from a
  model; the value at a state is the maximum expectation over that state's
  candidates.
* :class:`CounterexampleOperator` -- a closed-form three-state operator whose
  middle row maximises over a one-parameter curve of pmfs.  It is registered
  under ``builtin:counterexample-5.1``.

Structure (edges, closedness, one-step lower reachability) depends only on
which states each candidate pmf can reach, so every operator declares it as a
:class:`SupportTable` through :meth:`UpperOperator.supports`: per state, one
ascending tuple of state indices per candidate pmf.  Edges and lower
reachability are read off these tuples in plain Python, with no arithmetic
and in time linear in the number of support entries, so strict-positivity
tests never depend on the scale of the input.  :meth:`SupportTable.restrict`
is the one restriction: deeper decomposition levels cut the tuples, and no
restricted operator is ever built.  An operator therefore declares only its
``space``, ``apply`` and ``supports``, and, when it can prove its orbits'
limits in closed form, :meth:`UpperOperator.closed_form_limit`.  A credal
operator keeps its masses exact, as reduced integer ``(numerator,
denominator)`` pairs, only as the record of its model: the loader has
already used them to validate each pmf, drop duplicates and fix the pmf
order.  The package evaluates operators in
IEEE doubles only, through ``apply``, with each row entry the correctly
rounded ``numerator / denominator``: the verdicts need no arithmetic, and the
orbit engine in :mod:`imclim.orbits` iterates in floats.

All types are immutable after construction; operations are pure functions and
safe to share across threads.
"""

from __future__ import annotations

import functools
import numbers
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    ModelValidationError,
    NotWellDefinedError,
    UnsupportedOperatorError,
)

@dataclass(frozen=True)
class StateSpace:
    """Ordered, immutable collection of distinct state labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ModelValidationError("a state space needs at least one state")
        if len(set(self.labels)) != len(self.labels):
            dupes = sorted(x for x, k in Counter(self.labels).items() if k > 1)
            raise ModelValidationError(f"duplicate state labels: {dupes}")

    @functools.cached_property
    def positions(self) -> Mapping[str, int]:
        """Each label's index, as a read-only mapping built on first use."""
        return MappingProxyType({x: i for i, x in enumerate(self.labels)})

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, indices: Sequence[int]) -> "StateSpace":
        """Sub-space keeping the original labels, ordered by ascending index."""
        return StateSpace(tuple(self.labels[i] for i in sorted(indices)))


@dataclass(frozen=True, eq=False)
class SupportTable:
    """Which states each candidate pmf of an operator can reach.

    ``supports[x]`` holds one ascending tuple of state indices per candidate
    pmf of state ``x``, in pmf order, and every state has at least one.
    Edges, closedness and one-step lower reachability depend on the supports
    alone (Hermans & de Cooman, IJAR 53(4), 2012), so they need no
    arithmetic.
    """

    space: StateSpace
    supports: tuple[tuple[tuple[int, ...], ...], ...]

    @functools.cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Per state, the ascending states that some candidate puts mass on,
        computed on first read."""
        return tuple(
            sets[0] if len(sets) == 1 else tuple(sorted(set().union(*sets)))
            for sets in self.supports
        )

    def _indices(self, states: Iterable[int]) -> list[int]:
        """``states`` as ascending distinct indices.

        Raises :class:`ModelValidationError` naming the smallest one that is
        no integer in ``0..n-1``; a ``bool`` is no index, though it equals one.
        Each entry is checked before duplicates go, as ``{1, True, 1.0}`` is one
        element.
        """
        indices = sorted(states)
        n = len(self.space)
        for i in indices:
            if (type(i) is not int and (type(i) is bool or not isinstance(i, numbers.Integral))
                    or not 0 <= i < n):
                raise ModelValidationError(f"state index {i} out of range 0..{n - 1}")
        return list(dict.fromkeys(map(int, indices)))

    def restrict(self, keep: Sequence[int]) -> "SupportTable":
        """Table over ``keep``: the candidates with no support outside ``keep``, renumbered.

        Raises :class:`ModelValidationError` for a ``keep`` entry that is no
        state index, and :class:`NotWellDefinedError` naming the first kept
        state that keeps no candidate.
        """
        keep = self._indices(keep)
        space = self.space.subset(keep)
        inside = frozenset(keep)
        renumber = dict(zip(keep, range(len(keep)))).__getitem__
        supports = []
        for x in keep:
            kept = [tuple(map(renumber, p)) for p in self.supports[x] if inside.issuperset(p)]
            if not kept:
                raise NotWellDefinedError(self.space.labels[x], space.labels)
            supports.append(tuple(kept))
        return SupportTable(space, tuple(supports))


class UpperOperator(ABC):
    """Upper transition operator over a finite state space.

    Implementations must be subadditive, positively homogeneous and dominated
    by the pointwise maximum; the test suite exercises these properties rather
    than the constructor.  :meth:`supports` is the only structural hook.
    """

    is_finitely_generated: bool = False

    @property
    @abstractmethod
    def space(self) -> StateSpace:
        ...

    @property
    def n(self) -> int:
        return len(self.space)

    @abstractmethod
    def apply(self, f: Sequence[float]) -> np.ndarray:
        """Apply the operator in double precision to an ``(n,)`` function or,
        column by column, to an ``(n, m)`` block of functions."""

    def supports(self) -> SupportTable:
        """The support of every candidate pmf, per state: the operator's structure.

        Operators that declare none are refused rather than given structure
        from floating-point thresholds.
        """
        raise UnsupportedOperatorError(
            f"{type(self).__name__} declares no candidate supports; "
            "refusing to derive structure from floating-point thresholds"
        )

    def closed_form_limit(self, block: np.ndarray) -> np.ndarray | None:
        """The orbit limits of the columns of an ``(n, k)`` start block, as an
        ``(n, k)`` array, or ``None`` when the operator declares none.

        A declared limit must be proven for every start: the orbit engine
        ends a column that is still moving at ``W`` with period 1 and this
        limit (stop reason ``"certified"``), see :mod:`imclim.orbits`.
        """
        return None

    def _check_vector(self, f) -> np.ndarray:
        g = np.asarray(f, dtype=float)
        if g.ndim not in (1, 2) or g.shape[0] != self.n:
            raise DimensionMismatchError(
                f"function has shape {g.shape}, expected ({self.n},) or ({self.n}, m)"
            )
        return g


class CredalOperator(UpperOperator):
    """Finitely generated operator: per-state maximum expectation over a finite pmf set.

    ``pmfs[x]`` holds the candidate pmfs of state ``x``, each a tuple of
    ascending ``(index, numerator, denominator)`` triples: the non-zero masses
    as reduced fractions, so the triples are the support.  They arrive
    validated, distinct and in canonical order from
    :func:`~imclim.modelio.parse_model`, the one way to build the operator
    from a model, and are kept as the model's exact record.  Row ``k`` of
    the float matrix belongs to the ``k``-th pmf in that order.  The support
    table, read off the triples' indices, is kept beside the float matrix
    because a positive mass may round to ``0.0``.

    :meth:`apply` takes every candidate's expectation with one matrix product
    and then the per-state maximum as a gather-max: a ``(K, n)`` row index,
    ``K`` the largest candidate count of any state, lists each state's rows
    and repeats its last row as padding.  ``max`` is exact and the padding
    only adds ``max(x, x)``, so the result is bit for bit the sequential
    maximum over each state's rows.  The matrix and the index are built on
    the first ``apply``, so analyses that read only the structure never pay
    for them; the index is no larger than the matrix, and the gather does no
    more work than the product.
    """

    is_finitely_generated = True

    def __init__(self, space: StateSpace, pmfs: tuple):
        self._space = space
        self._pmfs = pmfs
        self._table = SupportTable(
            space, tuple(tuple(tuple(y for y, _, _ in p) for p in sets) for sets in pmfs)
        )

    @property
    def pmfs(self) -> tuple:
        return self._pmfs

    @property
    def space(self) -> StateSpace:
        return self._space

    @functools.cached_property
    def _matrix(self) -> np.ndarray:
        flat = [p for sets in self._pmfs for p in sets]
        rows = np.repeat(np.arange(len(flat)), [len(p) for p in flat])
        cols = [y for p in flat for y, _, _ in p]
        matrix = np.zeros((len(flat), self.n))
        # int / int is correctly rounded: the nearest double to the exact mass
        matrix[rows, cols] = [num / den for p in flat for _, num, den in p]
        return matrix

    @functools.cached_property
    def _rows_by_rank(self) -> np.ndarray:
        # [j, x]: the j-th row of state x, or its last row for j past its count
        counts = np.array([len(sets) for sets in self._pmfs])
        starts = np.cumsum(counts) - counts
        return starts + np.minimum(np.arange(counts.max())[:, None], counts - 1)

    def apply(self, f):
        """The gather-max over one matrix product of every candidate and column.

        The product's bits can depend on the block's shape and memory
        layout: a one-column block (matrix-vector) or a strided block, such
        as ``block[:, index]`` returns, can round differently from the same
        values in a contiguous block of several columns.  So the orbit
        engine's iterates depend on when it compacts its running columns,
        and it does so only on the steps that retire one.
        """
        g = self._check_vector(f)
        return (self._matrix @ g).take(self._rows_by_rank, axis=0).max(axis=0)

    def supports(self):
        return self._table


def _max2(x, y):
    # Python's max(x, y), elementwise: y only where strictly larger, so a tie
    # of 0.0 and -0.0 keeps x; np.maximum may return either zero
    return np.where(y > x, y, x)


def _curve_max(g):
    # max over t in [0, 1/2] of (fa - fc) t^2 + (fb - fc) t + fc for each
    # column (fa, fb, fc) of g; the concave case checks the interior vertex,
    # everything else the endpoints.  Overflow to inf and inf - inf stay
    # silent, as in Python float arithmetic.  A numpy call on a few lanes
    # costs more than its arithmetic, so paired terms share one call and the
    # vertex is evaluated only when some lane has it inside.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fc = g[2]
        diffs = g[:2] - fc
        a2, a1 = diffs[0], diffs[1]
        halves = diffs * 0.5
        curve = _max2(fc, halves[0] * 0.5 + halves[1] + fc)
        # -a1 / (2 a2) exactly, as IEEE rounding is symmetric in sign; it is
        # read only where a2 < 0, so other lanes may divide by zero
        neg_two_a2 = -2 * a2
        vertex = a1 / neg_two_a2
        inside = (a2 < 0) & (0 < vertex) & (vertex < 0.5)
        if inside.any():
            terms = diffs * vertex
            v_val = terms[0] * vertex + terms[1] + fc
            curve = np.where(inside & (v_val > curve), v_val, curve)
        if np.isfinite(a1 - neg_two_a2).all():  # nothing below overflowed
            return curve
        # Finite inputs far apart near the float limit overflow a1, a2 or the
        # vertex's 2 * a2, yet the curve, a convex combination of the inputs,
        # is finite.  A quarter-scaled copy overflows nowhere, and scaling by
        # 4 is exact above the subnormals; only the lanes that overflowed
        # take its value.
        lost = ~(np.isfinite(2 * a2) & np.isfinite(a1)) & np.isfinite(g).all(axis=0)
        if not lost.any():
            return curve
        return np.where(lost, 4 * _curve_max(g / 4), curve)


class CounterexampleOperator(UpperOperator):
    """Closed-form three-state operator with a continuum of candidates at its middle state.

    On states ``(a, b, c)`` it maps ``f`` to::

        a:  f(a)
        b:  max( f(a), max over t in [0, 1/2] of t^2 f(a) + t f(b) + (1 - t - t^2) f(c) )
        c:  max( f(a), f(b) )

    The inner maximum of the quadratic in ``t`` is taken in closed form over
    the endpoints and the interior vertex.  The candidate supports are
    declared in :meth:`supports`.

    Every orbit of this operator converges, yet its restriction to the states
    ``{b, c}`` is a pure swap of cyclicity 2: it is the canonical witness that
    for operators which are *not* finitely generated, the regular-levels
    condition certifies convergence in one direction only.  Orbits approach
    their limit ``(f(a), max f, max f)`` at rate O(1/n), not geometrically,
    so :meth:`closed_form_limit` declares it, and the orbit engine certifies
    it instead of iterating to a tight tolerance.
    """

    is_finitely_generated = False

    _SPACE = StateSpace(("a", "b", "c"))

    @property
    def space(self) -> StateSpace:
        return self._SPACE

    def apply(self, f):
        g = self._check_vector(f)
        out = np.empty_like(g)
        out[::2] = g[:2]  # a: f(a); c: f(b), before its maximum with f(a)
        out[1] = _curve_max(g)
        # rows b and c: _max2(f(a), row), both in one call
        np.copyto(out[1:], g[0], where=~(out[1:] > g[0]))
        return out

    def closed_form_limit(self, block):
        # Every orbit converges to (f(a), max f, max f), a fixed point of T.
        # T commutes with adding a constant, so take f(a) = 0 and M = max f.
        # One step gives Tf(b), Tf(c) >= 0 with max(Tf(b), Tf(c)) = M, and
        # every later step keeps that.  Row c copies row b, so the gap
        # d = M - min(Tf(b), Tf(c)) moves every second step, to
        # d - d^2 / (4 (M - d)) when d <= M/2 and to M/4 + d/4 otherwise: a
        # continuous map that never raises d and fixes only 0, so d falls to
        # 0, like 8 M / n.  f(a) and max are exact in doubles.
        g = self._check_vector(block)
        top = g.max(axis=0)
        return np.stack((g[0], top, top))

    def supports(self):
        # a: {a};  b: {a}, the curve's {c} at t = 0 and {a, b, c} for t in (0, 1/2];  c: {a}, {b}
        return SupportTable(self._SPACE, (((0,),), ((0,), (2,), (0, 1, 2)), ((0,), (1,))))


#: Closed-form operators addressable from model sources by name.
BUILTIN_OPERATORS: dict[str, Callable[[], UpperOperator]] = {
    "builtin:counterexample-5.1": CounterexampleOperator,
}
