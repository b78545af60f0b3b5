"""Lower reachability of closed classes and the induced three-way state split."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalInvariantError, PreconditionError
from .graphs import AccessGraph, ClassInfo, build_graph, communication_classes
from .operators import StateSpace, UpperOperator


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
    op: UpperOperator, targets: Iterable[int], adjacency: np.ndarray | None = None
) -> tuple[frozenset[int], tuple[frozenset[int], ...]]:
    """States from which the closed class ``targets`` is lower reachable.

    Grows the class one step at a time: a state joins as soon as its one-step
    lower probability of the current set is positive.  Closedness and each
    step come from the operator's structural hook.  The fixpoint is reached
    after at most ``n - |targets|`` rounds.  Returns the fixpoint together
    with the whole growing sequence.  ``adjacency`` is ``op.adjacency()``,
    passed by callers that have already built it.
    """
    current = frozenset(op._target_set(targets))
    if not current:
        raise PreconditionError("the target class must be non-empty")
    outside = sorted(frozenset(range(op.n)) - current)
    if adjacency is None:
        adjacency = op.adjacency()
    # the upper probability of leaving is positive iff some edge leaves
    if outside and adjacency[np.ix_(sorted(current), outside)].any():
        raise PreconditionError(
            f"class {{{', '.join(op.space.labels_of(current))}}} is not closed"
        )
    sequence = [current]
    while additions := op.lower_positive(current) - current:
        current = current | additions
        sequence.append(current)
    return current, tuple(sequence)


def partition_states(
    op: UpperOperator,
    classes: Sequence[ClassInfo] | None = None,
    graph: AccessGraph | None = None,
) -> StatePartition:
    """Partition the states of ``op`` by their limit role.

    ``classes`` and ``graph`` are those of ``op``, passed by callers that have
    already built them.
    """
    if graph is None:
        graph = build_graph(op)
    if classes is None:
        classes = communication_classes(graph)
    maximal = tuple(c.members for c in classes if c.is_maximal)
    maximal_states = frozenset().union(*maximal)
    reach, sequence = lower_reach_set(op, maximal_states, graph.adjacency)
    return StatePartition(
        space=op.space,
        maximal_classes=maximal,
        maximal_states=maximal_states,
        absorbed_transients=reach - maximal_states,
        unabsorbed_transients=frozenset(range(op.n)) - reach,
        reach_sequence=sequence,
    )
