"""Lower reachability of closed classes and the induced three-way state split.

Both read a :class:`~imclim.operators.SupportTable`: a state's one-step lower
probability of a set is positive exactly when every candidate pmf at the
state puts mass on the set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalInvariantError, PreconditionError
from .graphs import ClassInfo, build_graph, communication_classes
from .operators import StateSpace, SupportTable


@dataclass(frozen=True)
class StatePartition:
    """Split of the state space by limit role.

    ``maximal_states`` is the union of the maximal communication classes;
    ``absorbed_transients`` are the transient states from which that union is
    lower reachable; ``unabsorbed_transients`` are the transient states from
    which it is not.  ``reach_sequence`` records the growing sets produced by
    the fixpoint iteration, starting from the maximal states themselves.
    """

    space: StateSpace
    maximal_classes: tuple[frozenset[int], ...]
    maximal_states: frozenset[int]
    absorbed_transients: frozenset[int]
    unabsorbed_transients: frozenset[int]
    reach_sequence: tuple[frozenset[int], ...]

    def __post_init__(self):
        pieces = (
            self.maximal_states,
            self.absorbed_transients,
            self.unabsorbed_transients,
        )
        total = sum(len(p) for p in pieces)
        union = frozenset().union(*pieces)
        if total != len(self.space) or union != frozenset(range(len(self.space))):
            raise InternalInvariantError("partition pieces must be disjoint and cover the space")


def lower_reach_set(
    table: SupportTable, targets: Iterable[int]
) -> tuple[frozenset[int], tuple[frozenset[int], ...]]:
    """States from which the closed class ``targets`` is lower reachable.

    Grows the class one step at a time: a state joins as soon as its one-step
    lower probability of the current set is positive.  The fixpoint is
    reached after at most ``n - |targets|`` rounds.  Returns the fixpoint
    together with the whole growing sequence.  Raises
    :class:`ModelValidationError` for a target that is no state index.
    """
    n = len(table.space)
    current = frozenset(table._indices(targets))
    if not current:
        raise PreconditionError("the target class must be non-empty")
    # the upper probability of leaving is positive iff some candidate at a
    # member has support outside the class
    outside = sorted(frozenset(range(n)) - current)
    leaves = np.logical_or.reduceat(table.rows[:, outside].any(axis=1), table.starts)
    if leaves[sorted(current)].any():
        raise PreconditionError(
            f"class {{{', '.join(table.space.labels_of(current))}}} is not closed"
        )
    sequence = [current]
    while additions := table.lower_positive(current) - current:
        current = current | additions
        sequence.append(current)
    return current, tuple(sequence)


def partition_states(
    table: SupportTable, classes: Sequence[ClassInfo] | None = None
) -> StatePartition:
    """Partition the states of ``table`` by their limit role.

    ``classes`` are the communication classes of ``build_graph(table)``,
    passed by callers that have already computed them.
    """
    if classes is None:
        classes = communication_classes(build_graph(table))
    maximal = tuple(c.members for c in classes if c.is_maximal)
    maximal_states = frozenset().union(*maximal)
    reach, sequence = lower_reach_set(table, maximal_states)
    return StatePartition(
        space=table.space,
        maximal_classes=maximal,
        maximal_states=maximal_states,
        absorbed_transients=reach - maximal_states,
        unabsorbed_transients=frozenset(range(len(table.space))) - reach,
        reach_sequence=sequence,
    )
