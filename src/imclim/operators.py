"""Exact upper and lower transition operators over finite state spaces.

The central object is :class:`UpperOperator`: a map on real-valued functions
over a finite state space that is subadditive, positively homogeneous and
dominated by the pointwise maximum.  Two implementations are provided:

* :class:`CredalOperator` -- driven by a finite set of candidate transition
  pmfs per state (a :class:`CredalFamily`); the value at a state is the
  maximum expectation over that state's candidates.
* :class:`CounterexampleOperator` -- a closed-form three-state operator whose
  middle row maximises over a one-parameter curve of pmfs.  It is registered
  under ``builtin:counterexample-5.1``.

Structure (edges, closedness, one-step lower reachability) comes from the
hook :meth:`UpperOperator.adjacency` / :meth:`UpperOperator.lower_positive`.
Finitely generated operators read it off their pmf supports, with no
arithmetic; only closed-form operators evaluate indicators in exact rational
arithmetic.  Either way strict-positivity tests never depend on the scale of
the input.  Numerical iteration lives in :mod:`imclim.orbits` and uses IEEE
doubles.

All types are immutable after construction; operations are pure functions and
safe to share across threads.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    ModelValidationError,
    NotWellDefinedError,
    UnsupportedOperatorError,
)

RationalLike = Fraction | int

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class StateSpace:
    """Ordered, immutable collection of distinct state labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ModelValidationError("a state space needs at least one state")
        if len(set(self.labels)) != len(self.labels):
            dupes = sorted({x for x in self.labels if self.labels.count(x) > 1})
            raise ModelValidationError(f"duplicate state labels: {dupes}")
        object.__setattr__(self, "_pos", {x: i for i, x in enumerate(self.labels)})

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._pos[label]
        except KeyError:
            raise ModelValidationError(f"unknown state label '{label}'") from None

    def subset(self, indices: Sequence[int]) -> "StateSpace":
        """Sub-space keeping the original labels, ordered by ascending index."""
        return StateSpace(tuple(self.labels[i] for i in sorted(indices)))

    def labels_of(self, indices: Iterable[int]) -> tuple[str, ...]:
        return tuple(sorted(self.labels[i] for i in indices))


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over ``n`` states with exact rational masses.

    ``mass`` maps state index to mass; it is stored as ascending
    ``(index, mass)`` pairs with zero masses dropped, so the pairs are the
    support.  Masses are non-negative, indices lie in ``0..n-1`` and the
    masses sum to exactly one; all checks happen at construction time so
    downstream code never has to revalidate.
    """

    n: int
    mass: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        items = sorted((i, m if isinstance(m, Fraction) else Fraction(m))
                       for i, m in dict(self.mass).items())
        bad = [i for i, _ in items if not 0 <= i < self.n]
        if bad:
            raise ModelValidationError(f"state indices {bad} out of range 0..{self.n - 1}")
        negative = [i for i, m in items if m < 0]
        if negative:
            raise ModelValidationError(f"negative mass at positions {negative}")
        total = sum(m for _, m in items)
        if total != 1:
            raise ModelValidationError(f"masses sum to {total}, expected exactly 1")
        object.__setattr__(self, "mass", tuple((i, m) for i, m in items if m))

    @property
    def support(self) -> frozenset[int]:
        return frozenset(i for i, _ in self.mass)

    def expectation(self, values: Sequence):
        """Expected value of ``values``; exact when the values are rational."""
        if len(values) != self.n:
            raise DimensionMismatchError(
                f"function has length {len(values)}, pmf has length {self.n}"
            )
        return sum(m * values[i] for i, m in self.mass)


def onehot(index: int, n: int) -> Pmf:
    """Point mass at ``index`` over ``n`` states."""
    return Pmf(n, {index: 1})


def _dense_order(p: Pmf) -> tuple:
    # Sorts like the dense mass vectors: a pmf whose first differing entry
    # is larger comes later, and mass at a lower index is the larger entry.
    return tuple((-i, m) for i, m in p.mass)


@dataclass(frozen=True)
class CredalFamily:
    """Per-state finite, non-empty sets of candidate transition pmfs.

    Duplicate pmfs within a state's set are removed and the remainder is put
    into a canonical order (that of the dense mass vectors), so two families
    describing the same model compare equal.
    """

    space: StateSpace
    per_state: tuple[tuple[Pmf, ...], ...]

    def __post_init__(self):
        n = len(self.space)
        if len(self.per_state) != n:
            raise ModelValidationError(
                f"family lists {len(self.per_state)} states, space has {n}"
            )
        cleaned = []
        for x, pmfs in enumerate(self.per_state):
            label = self.space.labels[x]
            if not pmfs:
                raise ModelValidationError(f"state '{label}' has no candidate pmfs")
            for k, p in enumerate(pmfs):
                if p.n != n:
                    raise ModelValidationError(
                        f"pmf #{k} for state '{label}' has length {p.n}, expected {n}"
                    )
            cleaned.append(tuple(sorted(set(pmfs), key=_dense_order)))
        object.__setattr__(self, "per_state", tuple(cleaned))

    def restrict(self, keep: Sequence[int]) -> "CredalFamily":
        """Family over ``keep`` built from the pmfs supported inside ``keep``.

        A kept pmf is the parent pmf with its indices renumbered; its masses
        are unchanged, so it is not validated again, and the renumbering is
        monotone and injective, so the kept pmfs stay distinct and in
        canonical order.  Raises :class:`NotWellDefinedError` when some
        retained state keeps no pmf at all.
        """
        keep = tuple(sorted(set(keep)))
        if not keep:
            raise ModelValidationError("cannot restrict to an empty class")
        if keep[0] < 0 or keep[-1] >= len(self.space):
            raise ModelValidationError(f"restriction indices out of range: {keep}")
        sub_space = self.space.subset(keep)
        local = {x: i for i, x in enumerate(keep)}
        per = []
        for x in keep:
            kept = []
            for p in self.per_state[x]:
                if all(y in local for y, _ in p.mass):
                    q = object.__new__(Pmf)
                    object.__setattr__(q, "n", len(keep))
                    object.__setattr__(q, "mass", tuple((local[y], m) for y, m in p.mass))
                    kept.append(q)
            if not kept:
                raise NotWellDefinedError(self.space.labels[x], sub_space.labels)
            per.append(tuple(kept))
        family = object.__new__(CredalFamily)
        object.__setattr__(family, "space", sub_space)
        object.__setattr__(family, "per_state", tuple(per))
        return family


def validate_family(
    labels: Sequence[str],
    credal_sets: Mapping[str, Sequence[Mapping[str, RationalLike]]],
) -> CredalFamily:
    """Validate a parsed model and assemble the credal family.

    ``credal_sets`` maps each state label to a list of pmfs, each given as a
    ``{target_label: rational}`` mapping; omitted targets carry mass zero.
    Validation errors name the offending state and pmf.
    """
    space = StateSpace(tuple(labels))
    unknown = sorted(set(credal_sets) - set(space.labels))
    if unknown:
        raise ModelValidationError(f"credal sets given for unknown states: {unknown}")
    n = len(space)
    per_state = []
    for label in space.labels:
        raw = credal_sets.get(label)
        if raw is None:
            raise ModelValidationError(f"no credal set for state '{label}'")
        if not raw:
            raise ModelValidationError(f"empty credal set for state '{label}'")
        pmfs = []
        for k, entry in enumerate(raw):
            bad = sorted(set(entry) - set(space.labels))
            if bad:
                raise ModelValidationError(
                    f"pmf #{k} for state '{label}' assigns mass to unknown states {bad}"
                )
            try:
                pmfs.append(Pmf(n, {space.index(y): m for y, m in entry.items()}))
            except ModelValidationError as exc:
                raise ModelValidationError(
                    f"pmf #{k} for state '{label}': {exc}"
                ) from exc
        per_state.append(tuple(pmfs))
    return CredalFamily(space, tuple(per_state))


class UpperOperator(ABC):
    """Upper transition operator over a finite state space.

    Implementations must be subadditive, positively homogeneous and dominated
    by the pointwise maximum; the test suite exercises these properties rather
    than the constructor.  The default structural hook (:meth:`adjacency` and
    :meth:`lower_positive`) evaluates indicators through :meth:`apply_exact`,
    so an operator without an exact evaluation path is refused rather than
    thresholded in floating point.  Subclasses may override the hook with a
    faster exact route.
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
        """Apply the operator to ``f`` in double precision."""

    def apply_exact(self, f: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        """Apply the operator exactly on rational inputs."""
        raise UnsupportedOperatorError(
            f"{type(self).__name__} has no exact evaluation path; "
            "refusing to derive structure from floating-point thresholds"
        )

    # The lower operator is the conjugate map f -> -upper(-f).
    def apply_lower_exact(self, f: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        return tuple(-v for v in self.apply_exact(tuple(-Fraction(x) for x in f)))

    def _target_set(self, targets: int | Iterable[int]) -> frozenset[int]:
        idx = frozenset([targets]) if isinstance(targets, int) else frozenset(targets)
        for i in idx:
            if not 0 <= i < self.n:
                raise ModelValidationError(f"state index {i} out of range 0..{self.n - 1}")
        return idx

    def upper_indicator(self, targets: int | Iterable[int]) -> tuple[Fraction, ...]:
        """Exact per-state upper probability of hitting ``targets`` in one step."""
        idx = self._target_set(targets)
        f = tuple(Fraction(int(i in idx)) for i in range(self.n))
        return self.apply_exact(f)

    def lower_indicator(self, targets: int | Iterable[int]) -> tuple[Fraction, ...]:
        """Exact one-step lower probabilities, via the complement identity.

        Only upper evaluations on rational indicators are ever needed:
        the lower value of a set is one minus the upper value of its
        complement.
        """
        idx = self._target_set(targets)
        complement = frozenset(range(self.n)) - idx
        return tuple(1 - v for v in self.upper_indicator(complement))

    def adjacency(self) -> np.ndarray:
        """Boolean ``(n, n)`` matrix: ``x -> y`` iff the upper probability of ``y`` at ``x`` is positive."""
        return np.array([self.upper_indicator(y) for y in range(self.n)]).T > 0

    def lower_positive(self, targets: Iterable[int]) -> frozenset[int]:
        """States at which the one-step lower probability of ``targets`` is positive."""
        return frozenset(x for x, v in enumerate(self.lower_indicator(targets)) if v > 0)

    def restrict(self, keep: Sequence[int]) -> "UpperOperator":
        """Operator restricted to the class ``keep`` (ascending original indices).

        Closed-form operators must register their own restriction rules;
        without them this raises :class:`UnsupportedOperatorError`.
        """
        raise UnsupportedOperatorError(
            f"{type(self).__name__} registers no restriction rules"
        )

    def _check_vector(self, f) -> np.ndarray:
        g = np.asarray(f, dtype=float)
        if g.shape != (self.n,):
            raise DimensionMismatchError(
                f"function has shape {g.shape}, expected ({self.n},)"
            )
        return g


class CredalOperator(UpperOperator):
    """Finitely generated operator: per-state maximum expectation over a finite pmf set.

    Row ``k`` of the float matrix and of the support matrix belongs to the
    ``k``-th pmf in the family's canonical order; ``_starts`` marks where each
    state's rows begin.  The support matrix is kept beside the float one
    because a positive mass may round to ``0.0``.
    """

    is_finitely_generated = True

    def __init__(self, family: CredalFamily):
        self._family = family
        lengths = [len(s) for s in family.per_state]
        self._starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.intp)
        pmfs = [p for sets in family.per_state for p in sets]
        rows = np.repeat(np.arange(len(pmfs)), [len(p.mass) for p in pmfs])
        cols = [y for p in pmfs for y, _ in p.mass]
        self._matrix = np.zeros((len(pmfs), self.n))
        self._matrix[rows, cols] = [float(m) for p in pmfs for _, m in p.mass]
        self._supports = np.zeros((len(pmfs), self.n), dtype=bool)
        self._supports[rows, cols] = True

    @property
    def family(self) -> CredalFamily:
        return self._family

    @property
    def space(self) -> StateSpace:
        return self._family.space

    def apply(self, f):
        g = self._check_vector(f)
        return np.maximum.reduceat(self._matrix @ g, self._starts)

    def apply_exact(self, f):
        if len(f) != self.n:
            raise DimensionMismatchError(
                f"function has length {len(f)}, expected {self.n}"
            )
        vals = tuple(Fraction(x) for x in f)
        return tuple(
            max(p.expectation(vals) for p in sets) for sets in self._family.per_state
        )

    def adjacency(self):
        # x -> y iff some candidate at x has y in its support
        return np.logical_or.reduceat(self._supports, self._starts, axis=0)

    def lower_positive(self, targets):
        # positive iff every candidate at x puts mass on targets
        meets = self._supports[:, sorted(self._target_set(targets))].any(axis=1)
        return frozenset(np.flatnonzero(np.logical_and.reduceat(meets, self._starts)).tolist())

    def restrict(self, keep):
        if set(keep) == set(range(self.n)):
            return self
        return type(self)(self._family.restrict(keep))


def identity_operator(labels: Sequence[str]) -> CredalOperator:
    """Operator whose only candidate at each state is the point mass on itself."""
    space = StateSpace(tuple(labels))
    n = len(space)
    per = tuple((onehot(i, n),) for i in range(n))
    return CredalOperator(CredalFamily(space, per))


def _curve_max(fa, fb, fc):
    # max over t in [0, 1/2] of (fa - fc) t^2 + (fb - fc) t + fc;
    # concave case checks the interior vertex, everything else the endpoints.
    a2 = fa - fc
    a1 = fb - fc
    best = fc
    half_val = a2 * _HALF * _HALF + a1 * _HALF + fc
    if half_val > best:
        best = half_val
    if a2 < 0:
        vertex = -a1 / (2 * a2)
        if 0 < vertex < _HALF:
            v_val = a2 * vertex * vertex + a1 * vertex + fc
            if v_val > best:
                best = v_val
    return best


class CounterexampleOperator(UpperOperator):
    """Closed-form three-state operator with a continuum of candidates at its middle state.

    On states ``(a, b, c)`` it maps ``f`` to::

        a:  f(a)
        b:  max( f(a), max over t in [0, 1/2] of t^2 f(a) + t f(b) + (1 - t - t^2) f(c) )
        c:  max( f(a), f(b) )

    The inner maximum of the quadratic in ``t`` is taken in closed form over
    the endpoints and the interior vertex, so evaluation is exact on rational
    inputs and the derived edge and lower-step predicates are exact as well.

    Every orbit of this operator converges, yet its restriction to the states
    ``{b, c}`` is a pure swap of cyclicity 2: it is the canonical witness that
    for operators which are *not* finitely generated, the regular-levels
    condition certifies convergence in one direction only.  Note that orbits
    approach their limit at rate O(1/n), not geometrically, so tight
    tolerances need very large iteration budgets.
    """

    is_finitely_generated = False

    _SPACE = StateSpace(("a", "b", "c"))

    @property
    def space(self) -> StateSpace:
        return self._SPACE

    def apply(self, f):
        g = self._check_vector(f)
        fa, fb, fc = float(g[0]), float(g[1]), float(g[2])
        return np.array([fa, max(fa, _curve_max(fa, fb, fc)), max(fa, fb)])

    def apply_exact(self, f):
        if len(f) != 3:
            raise DimensionMismatchError(f"function has length {len(f)}, expected 3")
        fa, fb, fc = (Fraction(x) for x in f)
        return (fa, max(fa, _curve_max(fa, fb, fc)), max(fa, fb))

    def restrict(self, keep):
        if tuple(sorted(set(keep))) == (0, 1, 2):
            return self
        # Candidates that can survive a restriction to a proper subclass: the
        # point masses among the defining pmfs (the curve only touches a point
        # mass at t = 0, where it sits entirely on state c).
        vertices = (
            (onehot(0, 3),),
            (onehot(0, 3), onehot(2, 3)),
            (onehot(0, 3), onehot(1, 3)),
        )
        return CredalOperator(CredalFamily(self._SPACE, vertices).restrict(keep))


#: Closed-form operators addressable from model sources by name.
BUILTIN_OPERATORS: dict[str, Callable[[], UpperOperator]] = {
    "builtin:counterexample-5.1": CounterexampleOperator,
}
