"""Upper transition operators over finite state spaces.

The central object is :class:`UpperOperator`: a map on real-valued functions
over a finite state space that is subadditive, positively homogeneous and
dominated by the pointwise maximum.  Two implementations are provided:

* :class:`CredalOperator` -- driven by a finite set of candidate transition
  pmfs per state (a :class:`CredalFamily`); the value at a state is the
  maximum expectation over that state's candidates.
* :class:`CounterexampleOperator` -- a closed-form three-state operator whose
  middle row maximises over a one-parameter curve of pmfs.  It is registered
  under ``builtin:counterexample-5.1``.

Structure (edges, closedness, one-step lower reachability) depends only on
which states each candidate pmf can reach, so every operator declares it as a
:class:`SupportTable` through :meth:`UpperOperator.supports`: one boolean row
per candidate support.  Edges and lower reachability are read off the rows
with no arithmetic, so strict-positivity tests never depend on the scale of
the input.  :meth:`SupportTable.restrict` is the one restriction: deeper
decomposition levels cut the table by mask, and no restricted operator is
ever built.  An operator therefore declares only its ``space``, ``apply``
and ``supports``.  Models keep their masses exact, as reduced integer
``(numerator, denominator)`` pairs: they serve only to validate each pmf
(signs on the numerators, the sum as one integer sum over the least common
denominator), to drop duplicate pmfs and to fix the canonical pmf order (by
cross-multiplication), all without a ``Fraction`` per mass.  The package
evaluates operators in IEEE doubles only, through ``apply``, with each row
entry the correctly rounded ``numerator / denominator``: the verdicts need no
arithmetic, and the orbit engine in :mod:`imclim.orbits` iterates in floats.

All types are immutable after construction; operations are pure functions and
safe to share across threads.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    ModelValidationError,
    NotWellDefinedError,
    UnsupportedOperatorError,
)

#: A mass as :class:`Pmf` takes it: a reduced ``(numerator, denominator)`` pair
#: with a positive denominator, or anything ``Fraction`` accepts.
RationalLike = Fraction | int | tuple[int, int]


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


def _pair(mass: RationalLike) -> tuple[int, int]:
    if type(mass) is tuple:
        return mass
    if not isinstance(mass, (int, Fraction)):
        mass = Fraction(mass)
    return mass.numerator, mass.denominator


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over ``n`` states with exact rational masses.

    ``mass`` maps state index to mass, each a ``Fraction``, an ``int`` or a
    reduced ``(numerator, denominator)`` pair with a positive denominator (as
    :func:`~imclim.modelio.parse_rational_pair` returns it).  It is stored as
    ascending ``(index, numerator, denominator)`` triples of reduced masses
    with zero masses dropped, so the triples are the support and two pmfs
    are equal exactly when their masses are.  Masses are non-negative,
    indices lie in ``0..n-1`` and the masses sum to exactly one, checked in
    integers (one common denominator, one integer sum); all checks happen at
    construction time so downstream code never has to revalidate.
    """

    n: int
    mass: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        items = sorted([(i, *_pair(m)) for i, m in dict(self.mass).items()])
        bad = [i for i, _, _ in items if not 0 <= i < self.n]
        if bad:
            raise ModelValidationError(f"state indices {bad} out of range 0..{self.n - 1}")
        negative = [i for i, num, _ in items if num < 0]
        if negative:
            raise ModelValidationError(f"negative mass at positions {negative}")
        common = lcm(*[den for _, _, den in items])
        total = sum([num * (common // den) for _, num, den in items])
        if total != common:
            try:
                text = str(Fraction(total, common))
            except ValueError:  # more digits than the interpreter converts to text
                text = "a rational too long to print"
            raise ModelValidationError(f"masses sum to {text}, expected exactly 1")
        object.__setattr__(self, "mass", tuple([t for t in items if t[1]]))


def _dense_cmp(p: Pmf, q: Pmf) -> int:
    # Sorts like the dense mass vectors: a pmf whose first differing entry
    # is larger comes later, and mass at a lower index is the larger entry.
    for (i, a, b), (j, c, d) in zip(p.mass, q.mass):
        if i != j:
            return 1 if i < j else -1
        if a * d != c * b:
            return -1 if a * d < c * b else 1
    return len(p.mass) - len(q.mass)


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
            cleaned.append(tuple(sorted(set(pmfs), key=cmp_to_key(_dense_cmp))))
        object.__setattr__(self, "per_state", tuple(cleaned))


def validate_family(
    labels: Sequence[str],
    credal_sets: Mapping[str, Sequence[Mapping[str, RationalLike]]],
) -> CredalFamily:
    """Validate a parsed model and assemble the credal family.

    ``credal_sets`` maps each state label to a list of pmfs, each given as a
    ``{target_label: mass}`` mapping, a mass being anything :class:`Pmf`
    takes; omitted targets carry mass zero.  Validation errors name the
    offending state and pmf: first any credal set given for an unknown state,
    then per state in ``labels`` order a missing or empty set, and per pmf
    unknown targets, negative masses and a sum other than one.
    """
    space = StateSpace(tuple(labels))
    unknown = sorted(set(credal_sets) - set(space.labels))
    if unknown:
        raise ModelValidationError(f"credal sets given for unknown states: {unknown}")
    n = len(space)
    index = space._pos
    per_state = []
    for label in space.labels:
        raw = credal_sets.get(label)
        if raw is None:
            raise ModelValidationError(f"no credal set for state '{label}'")
        if not raw:
            raise ModelValidationError(f"empty credal set for state '{label}'")
        pmfs = []
        for k, entry in enumerate(raw):
            if not entry.keys() <= index.keys():
                bad = sorted(y for y in entry if y not in index)
                raise ModelValidationError(
                    f"pmf #{k} for state '{label}' assigns mass to unknown states {bad}"
                )
            try:
                pmfs.append(Pmf(n, {index[y]: m for y, m in entry.items()}))
            except ModelValidationError as exc:
                raise ModelValidationError(
                    f"pmf #{k} for state '{label}': {exc}"
                ) from exc
        per_state.append(tuple(pmfs))
    return CredalFamily(space, tuple(per_state))


@dataclass(frozen=True, eq=False)
class SupportTable:
    """Which states each candidate pmf of an operator can reach.

    ``rows[k]`` is the support of candidate ``k``, a boolean vector over
    ``space``.  The candidates of state ``x`` are the rows from ``starts[x]``
    up to the next state's start, and every state has at least one.  Edges,
    closedness and one-step lower reachability depend on the supports alone
    (Hermans & de Cooman, IJAR 53(4), 2012), so they need no arithmetic.
    """

    space: StateSpace
    starts: np.ndarray  # (n,) ascending row offsets, starts[0] == 0
    rows: np.ndarray  # (candidates, n) bool

    def __post_init__(self):
        self.starts.setflags(write=False)  # shared by every caller of ``supports()``
        self.rows.setflags(write=False)

    def adjacency(self) -> np.ndarray:
        """Boolean ``(n, n)`` matrix: ``x -> y`` iff some candidate at ``x`` puts mass on ``y``."""
        return np.logical_or.reduceat(self.rows, self.starts, axis=0)

    def lower_positive(self, targets: Iterable[int]) -> frozenset[int]:
        """States at which the one-step lower probability of ``targets`` is
        positive, i.e. every candidate puts mass on ``targets``."""
        meets = self.rows[:, sorted(targets)].any(axis=1)
        return frozenset(np.flatnonzero(np.logical_and.reduceat(meets, self.starts)).tolist())

    def restrict(self, keep: Sequence[int]) -> "SupportTable":
        """Table over ``keep``: the rows with no support outside ``keep``, columns renumbered.

        Raises :class:`NotWellDefinedError` naming the first kept state that
        keeps no row.
        """
        keep = sorted(set(keep))
        n = len(self.space)
        inside = np.zeros(n, dtype=bool)
        inside[keep] = True
        owner = np.repeat(np.arange(n), np.diff(self.starts, append=len(self.rows)))
        kept = inside[owner] & ~self.rows[:, ~inside].any(axis=1)
        counts = np.bincount(owner[kept], minlength=n)[keep]
        space = self.space.subset(keep)
        if not counts.all():
            raise NotWellDefinedError(self.space.labels[keep[counts.argmin()]], space.labels)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1])).astype(np.intp)
        return SupportTable(space, starts, self.rows[kept][:, keep])


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

    def _check_vector(self, f) -> np.ndarray:
        g = np.asarray(f, dtype=float)
        if g.ndim not in (1, 2) or g.shape[0] != self.n:
            raise DimensionMismatchError(
                f"function has shape {g.shape}, expected ({self.n},) or ({self.n}, m)"
            )
        return g


class CredalOperator(UpperOperator):
    """Finitely generated operator: per-state maximum expectation over a finite pmf set.

    Row ``k`` of the float matrix and of the support table belongs to the
    ``k``-th pmf in the family's canonical order.  The support table is kept
    beside the float matrix because a positive mass may round to ``0.0``.
    """

    is_finitely_generated = True

    def __init__(self, family: CredalFamily):
        self._family = family
        lengths = [len(s) for s in family.per_state]
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.intp)
        pmfs = [p for sets in family.per_state for p in sets]
        rows = np.repeat(np.arange(len(pmfs)), [len(p.mass) for p in pmfs])
        cols = [y for p in pmfs for y, _, _ in p.mass]
        self._matrix = np.zeros((len(pmfs), self.n))
        # int / int is correctly rounded, so this equals float(Fraction(num, den))
        self._matrix[rows, cols] = [num / den for p in pmfs for _, num, den in p.mass]
        supports = np.zeros((len(pmfs), self.n), dtype=bool)
        supports[rows, cols] = True
        self._table = SupportTable(family.space, starts, supports)

    @property
    def family(self) -> CredalFamily:
        return self._family

    @property
    def space(self) -> StateSpace:
        return self._family.space

    def apply(self, f):
        g = self._check_vector(f)
        return np.maximum.reduceat(self._matrix @ g, self._table.starts)

    def supports(self):
        return self._table


def _max2(x, y):
    # Python's max(x, y), elementwise: y only where strictly larger, so a tie
    # of 0.0 and -0.0 keeps x; np.maximum may return either zero
    return np.where(y > x, y, x)


def _curve_max(fa, fb, fc):
    # max over t in [0, 1/2] of (fa - fc) t^2 + (fb - fc) t + fc, elementwise;
    # the concave case checks the interior vertex, everything else the endpoints.
    # Overflow to inf and inf - inf stay silent, as in Python float arithmetic.
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = fa - fc
        a1 = fb - fc
        best = _max2(fc, a2 * 0.5 * 0.5 + a1 * 0.5 + fc)
        concave = a2 < 0
        vertex = -a1 / (2 * np.where(concave, a2, -1))
        inside = concave & (0 < vertex) & (vertex < 0.5)
        v_val = a2 * vertex * vertex + a1 * vertex + fc
        curve = np.where(inside & (v_val > best), v_val, best)
        if np.isfinite(2 * a2 + a1).all():  # nothing below overflowed
            return curve
        # Finite inputs far apart near the float limit overflow a1, a2 or the
        # vertex's 2 * a2, yet the curve, a convex combination of the inputs,
        # is finite.  A quarter-scaled copy overflows nowhere, and scaling by
        # 4 is exact above the subnormals; only the lanes that overflowed
        # take its value.
        lost = ~(np.isfinite(2 * a2) & np.isfinite(a1))
        lost &= np.isfinite(fa) & np.isfinite(fb) & np.isfinite(fc)
        if not lost.any():
            return curve
        return np.where(lost, 4 * _curve_max(fa / 4, fb / 4, fc / 4), curve)


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
        fa, fb, fc = self._check_vector(f)
        return np.stack([fa, _max2(fa, _curve_max(fa, fb, fc)), _max2(fa, fb)])

    def supports(self):
        # a: {a};  b: {a}, the curve's {c} at t = 0 and {a, b, c} for t in (0, 1/2];  c: {a}, {b}
        rows = [[1, 0, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1], [1, 0, 0], [0, 1, 0]]
        return SupportTable(self._SPACE, np.array([0, 1, 4]), np.array(rows, dtype=bool))


#: Closed-form operators addressable from model sources by name.
BUILTIN_OPERATORS: dict[str, Callable[[], UpperOperator]] = {
    "builtin:counterexample-5.1": CounterexampleOperator,
}
