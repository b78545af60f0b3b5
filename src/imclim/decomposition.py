"""Recursive depth decomposition of the state space and the convergence verdicts.

The decomposition peels the state space level by level: each level takes the
maximal communication classes and the transient states that get absorbed into
them, then recurses on the remaining (unabsorbed) transient states.  Only the
operator's candidate supports matter, so every level is plain-Python work on
support tuples: each deeper level cuts the support table's tuples, and no
restricted operator is built.  ``partition_states`` builds each level from
its cut table, and :func:`decompose` folds that level into one
:class:`Decomposition` in the model's indices and drops it: per state, the
level it leaves at and its join round there, and per level, its maximal
classes.  Every level's states are an ascending subset of the model's, so
the model's indices keep each level's class order.  ``_RULES`` is the
code's copy of the decision rule table in the project README.

Each level logs one ``debug`` line on the ``imclim.decomposition`` logger:
its number, states, maximal classes, absorbed and remaining states.  The
module is purely structural: it reads support tables and graphs only, and
runs no orbit.  The numerical cross-check of a verdict lives in
:mod:`imclim.orbits` and is combined with the verdict in :mod:`imclim.report`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .graphs import AccessGraph, ClassInfo, build_graph
from .operators import UpperOperator
from .reachability import partition_states

log = logging.getLogger(__name__)

BASIS_ERGODIC = "Proposition 1"
BASIS_XM = "Proposition 3"
BASIS_SUFFICIENT = "Theorem 1"
BASIS_FINITELY_GENERATED = "Theorem 2"
BASIS_CONDITION_FAILED = "Theorem 1 condition not met"

#: The README's decision rules by ``convergent`` verdict: the rule it cites and its notes.
_RULES = {
    "yes": (BASIS_SUFFICIENT, ()),
    "no": (BASIS_FINITELY_GENERATED, (
        "non-convergence is only certified for finitely generated operators; the "
        "tool applies that direction under full finite generation, although finite "
        "pmf sets on the unabsorbed transient states alone would suffice",
    )),
    "inconclusive": (BASIS_CONDITION_FAILED, (
        "the operator is not finitely generated, so a failed condition "
        "does not refute convergence; orbits may still converge",
    )),
}


@dataclass(frozen=True)
class Decomposition:
    """The decomposition in the model's indices.

    ``graph`` is the model's accessibility graph and ``classes`` its
    communication classes, which are level 1's.  ``maximal[k - 1]`` holds
    level ``k``'s maximal classes, members and phases in the model's
    indices.  ``exits[x]`` is the level at which state ``x`` is maximal or
    absorbed, and ``rounds[x]`` its join round there, 0 for a maximal state.
    Level ``k``'s states are those with ``exits[x] >= k``; it absorbs those
    with ``exits[x] == k`` and a positive round, and leaves those with
    ``exits[x] > k`` remaining.
    """

    graph: AccessGraph
    classes: tuple[ClassInfo, ...]
    maximal: tuple[tuple[ClassInfo, ...], ...]
    exits: tuple[int, ...]
    rounds: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.maximal)


def _renumbered(info: ClassInfo, states: Sequence[int]) -> ClassInfo:
    """A level's maximal class with members and phases in the model's indices."""
    return ClassInfo(
        frozenset(states[i] for i in info.members),
        info.is_closed,
        info.cyclicity,
        tuple(frozenset(states[i] for i in phase) for phase in info.phases),
    )


def decompose(op: UpperOperator) -> Decomposition:
    """Peel the state space until no unabsorbed transient states remain.

    Reads ``op.supports()`` once and builds each level with
    :func:`~imclim.reachability.partition_states`, once per level.  The next
    level keeps the candidates with no support outside the remaining states;
    cutting in steps keeps the same candidates as cutting the original table
    once.  The cut cannot fail: a remaining state whose every candidate met
    the lower-reach set would have been absorbed.  Each level is folded into
    the record and dropped.  Raises :class:`UnsupportedOperatorError` when
    the operator declares no supports.
    """
    table = op.supports()
    graph = build_graph(table)
    n = len(table.space)
    exits, rounds = [0] * n, [0] * n
    maximal = []
    states: Sequence[int] = range(n)  # the model's index of each level index
    while True:
        level = partition_states(table)
        k = len(maximal) + 1
        local = []  # the level indices of the remaining states
        for i, (x, r) in enumerate(zip(states, level.rounds)):
            if r is None:
                local.append(i)
            else:
                exits[x], rounds[x] = k, r
        top = [c for c in level.classes if c.is_maximal]
        if k == 1:  # level 1's indices are the model's
            classes = level.classes
        else:
            top = [_renumbered(c, states) for c in top]
        maximal.append(tuple(top))
        if log.isEnabledFor(logging.DEBUG):
            on_top = sum(len(c.members) for c in top)
            log.debug("decomposition level %d: %d states, %d maximal classes, %d absorbed, "
                      "%d remaining", k, len(states), len(top),
                      len(states) - on_top - len(local), len(local))
        if not local:
            return Decomposition(graph, classes, tuple(maximal), tuple(exits), tuple(rounds))
        table = table.restrict(local)
        states = [states[i] for i in local]


@dataclass(frozen=True)
class Witness:
    """The first non-regular level class backing a negative or inconclusive verdict:
    level ``level``'s maximal class ``info``, in the model's indices."""

    level: int
    info: ClassInfo


@dataclass(frozen=True)
class Verdict:
    """The three verdicts of :func:`decide_convergence` and the witness of a
    failed condition; ``basis`` and ``notes`` are read off ``convergent``."""

    convergent: str  # "yes" | "no" | "inconclusive"
    ergodic: str  # "yes" | "no"
    convergent_on_xm: bool
    witness: Witness | None

    @property
    def basis(self) -> dict[str, str]:
        """The rule behind each verdict, keyed by verdict name."""
        return {
            "ergodic": BASIS_ERGODIC,
            "convergent_on_xm": BASIS_XM,
            "convergent": _RULES[self.convergent][0],
        }

    @property
    def notes(self) -> tuple[str, ...]:
        return _RULES[self.convergent][1]


def decide_convergence(op: UpperOperator, dec: Decomposition) -> Verdict:
    """Decide the three verdicts from the decomposition.

    All level maximal classes regular certifies convergence for any operator
    (Theorem 1).  A failed condition, witnessed by the first non-regular
    one, refutes convergence only for finitely generated operators (Theorem
    2); otherwise the verdict is "inconclusive".  Level 1 decides ergodicity
    (Proposition 1) and convergence on the maximal states (Proposition 3).
    """
    witness = next((Witness(k, info) for k, level in enumerate(dec.maximal, start=1)
                    for info in level if not info.is_regular), None)
    if witness is None:
        convergent = "yes"
    elif op.is_finitely_generated:
        convergent = "no"
    else:
        convergent = "inconclusive"
    top = dec.maximal[0]
    return Verdict(
        convergent=convergent,
        ergodic="yes" if len(top) == 1 and dec.depth == 1 and top[0].is_regular else "no",
        convergent_on_xm=all(info.is_regular for info in top),
        witness=witness,
    )
