"""Restriction of operators, functions and families to a class of states."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InternalInvariantError,
    NotWellDefinedError,
    PreconditionError,
)
from .graphs import ClassInfo, build_graph, communication_classes
from .operators import UpperOperator


@dataclass(frozen=True)
class RestrictedOperator:
    """An operator restricted to a class, keeping the parent correspondence.

    ``members`` are the parent indices retained, in ascending order; position
    ``i`` of the restricted space corresponds to parent state ``members[i]``.
    State labels are preserved, so reports keep speaking in the caller's
    state names.
    """

    parent: UpperOperator
    members: tuple[int, ...]
    operator: UpperOperator

    @property
    def labels(self) -> tuple[str, ...]:
        return self.operator.space.labels

    def to_parent(self, local_index: int) -> int:
        return self.members[local_index]

    def from_parent(self, parent_index: int) -> int:
        try:
            return self.members.index(parent_index)
        except ValueError:
            raise PreconditionError(
                f"parent state {parent_index} is not part of the restriction"
            ) from None

    def restrict_function(self, f: Sequence[float]) -> np.ndarray:
        g = np.asarray(f, dtype=float)
        if g.shape != (self.parent.n,):
            raise PreconditionError(
                f"function has shape {g.shape}, expected ({self.parent.n},)"
            )
        return g[list(self.members)]

    def restrict_function_exact(self, f: Sequence) -> tuple[Fraction, ...]:
        if len(f) != self.parent.n:
            raise PreconditionError(
                f"function has length {len(f)}, expected {self.parent.n}"
            )
        return tuple(Fraction(f[i]) for i in self.members)


def restrict_family(op: UpperOperator, members: Iterable[int]) -> RestrictedOperator:
    """Restrict ``op`` to ``members``.

    For finitely generated operators this keeps, per retained state, exactly
    the candidate pmfs supported inside the class (finite sets are closed, so
    the restriction can work on the vertex list directly).  Raises
    :class:`NotWellDefinedError` when some retained state keeps no pmf.
    """
    m = tuple(sorted(set(members)))
    if not m:
        raise PreconditionError("cannot restrict to an empty class")
    if m[0] < 0 or m[-1] >= op.n:
        raise PreconditionError(f"restriction indices out of range: {m}")
    return RestrictedOperator(parent=op, members=m, operator=op.restrict(m))


def restrict_to_maximal(
    op: UpperOperator,
    members: Iterable[int],
    classes: Sequence[ClassInfo] | None = None,
) -> RestrictedOperator:
    """Restrict to a maximal communication class; always well defined."""
    target = frozenset(members)
    if classes is None:
        classes = communication_classes(build_graph(op))
    info = next((c for c in classes if c.members == target), None)
    if info is None or not info.is_maximal:
        raise PreconditionError(
            f"{{{', '.join(op.space.labels_of(target))}}} is not a maximal communication class"
        )
    try:
        return restrict_family(op, target)
    except NotWellDefinedError as exc:  # closedness guarantees non-empty sets
        raise InternalInvariantError(
            f"restriction to a maximal class failed unexpectedly: {exc}"
        ) from exc
