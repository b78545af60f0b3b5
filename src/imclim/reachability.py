"""The state partition of one decomposition level, and the lower reach it is built on.

A level's :class:`StatePartition` is its communication classes and each
state's join round in the lower reach of the union of its maximal classes:
round 0 for the maximal states, a positive round for the absorbed states
and ``None`` for the unabsorbed ones.  :func:`partition_states` is the one
way to build a level: it reads a :class:`~imclim.operators.SupportTable`
and computes both itself, in the level's own indices;
:func:`~imclim.decomposition.decompose` folds each level into the model's
indices and keeps no partition.  A state's one-step lower probability of a
set is positive exactly when every candidate pmf at the state puts mass on
the set.  Lower reachability is therefore an AND-OR attractor over the
support tuples, computed in plain Python with the counter technique of
Dowling & Gallier (J. Logic Programming 1(3), 1984), in time linear in the
number of support entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import ClassInfo, build_graph, communication_classes
from .operators import SupportTable


@dataclass(frozen=True)
class StatePartition:
    """One decomposition level: the communication classes of the level's
    accessibility graph and the round in which each state joins the lower
    reach of their maximal states.

    ``classes`` is ``communication_classes`` of the level's graph, in the
    indices of the level's support table, whose ``space`` labels them.
    ``rounds[x]`` is the round in which state ``x`` joins the growing
    lower-reach set: 0 for the maximal states, ``k`` for the states that
    join in round ``k``, and ``None`` for the unabsorbed transients.
    """

    classes: tuple[ClassInfo, ...]
    rounds: tuple[int | None, ...]

    @property
    def reach_sequence(self) -> tuple[frozenset[int], ...]:
        """The growing lower-reach sets, starting from the maximal states,
        built from ``rounds`` on each read."""
        return _reach_sets(self.rounds)


def _reach_sets(rounds: Sequence[int | None]) -> tuple[frozenset[int], ...]:
    """Set ``k`` holds the states whose round is at most ``k``."""
    joined: list[list[int]] = [[] for _ in range(max(k for k in rounds if k is not None) + 1)]
    for x, k in enumerate(rounds):
        if k is not None:
            joined[k].append(x)
    sets, current = [], frozenset()
    for joiners in joined:
        current = current.union(joiners)
        sets.append(current)
    return tuple(sets)


def _join_rounds(table: SupportTable, targets: Sequence[int]) -> list[int | None]:
    """Each state's round in the lower-reach attractor of the closed set ``targets``.

    A candidate is marked the first time it meets the set, and a state joins
    in the round its last unmarked candidate is marked.  A round's joiners
    are collected before any of them is added, so round ``k`` holds the
    states whose every candidate meets the set of round ``k - 1`` and no
    earlier set.  ``targets`` must be closed, as the union of a level's
    maximal classes is; no edge leaving it is looked for.
    """
    n = len(table.space)
    rounds: list[int | None] = [None] * n
    for x in targets:
        rounds[x] = 0
    unmarked = [0] * n  # per state outside the set: its candidates not yet meeting it
    owner: list[int] = []  # per candidate of such a state: the state
    meeting: list[list[int]] = [[] for _ in range(n)]  # per state: the candidates on it
    for x, sets in enumerate(table.supports):
        if rounds[x] is None:
            unmarked[x] = len(sets)
            for support in sets:
                for y in support:
                    meeting[y].append(len(owner))
                owner.append(x)
    marked = bytearray(len(owner))
    frontier: Sequence[int] = targets
    k = 0
    while frontier:
        k += 1
        joiners = []
        for y in frontier:
            for c in meeting[y]:
                if not marked[c]:
                    marked[c] = 1
                    x = owner[c]
                    unmarked[x] -= 1
                    if not unmarked[x]:
                        joiners.append(x)
        for x in joiners:
            rounds[x] = k
        frontier = joiners
    return rounds


def partition_states(table: SupportTable) -> StatePartition:
    """The level of ``table``: the communication classes of
    ``build_graph(table)`` and each state's round in the lower reach of
    their maximal states."""
    classes = communication_classes(build_graph(table))
    maximal_states = sorted(x for c in classes if c.is_maximal for x in c.members)
    return StatePartition(classes, tuple(_join_rounds(table, maximal_states)))
