"""Recursive depth decomposition of the state space and the convergence verdicts.

The decomposition peels the state space level by level: each level takes the
maximal communication classes and the transient states that get absorbed into
them, then recurses on the remaining (unabsorbed) transient states.  Only the
operator's candidate supports matter, so every level is plain-Python work on
support tuples: each deeper level cuts the support table's tuples, and no
restricted operator is built.  A level is the
:class:`~imclim.reachability.StatePartition` that ``partition_states`` builds
from the level's table: its ``space``, its communication ``classes`` and
each state's join ``rounds``, all in the level's own indices, with the
level's space giving the labels.  Level ``k`` is ``levels[k - 1]``.  Verdict
``basis`` strings name entries of the decision rule table in the project
README.

The module is purely structural: it reads support tables and graphs only,
and runs no orbit.  The numerical cross-check of a verdict lives in
:mod:`imclim.orbits` and is combined with the verdict in :mod:`imclim.report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .graphs import AccessGraph, ClassInfo, build_graph
from .operators import UpperOperator
from .reachability import StatePartition, partition_states

BASIS_ERGODIC = "Proposition 1"
BASIS_XM = "Proposition 3"
BASIS_SUFFICIENT = "Theorem 1"
BASIS_FINITELY_GENERATED = "Theorem 2"
BASIS_CONDITION_FAILED = "Theorem 1 condition not met"

_FOOTNOTE_NOTE = (
    "non-convergence is only certified for finitely generated operators; the "
    "tool applies that direction under full finite generation, although finite "
    "pmf sets on the unabsorbed transient states alone would suffice"
)


@dataclass(frozen=True)
class Decomposition:
    """The model's accessibility graph and the levels of the decomposition;
    the model's space is ``levels[0].space``."""

    graph: AccessGraph
    levels: tuple[StatePartition, ...]

    @property
    def depth(self) -> int:
        return len(self.levels)


def decompose(op: UpperOperator) -> Decomposition:
    """Peel the state space until no unabsorbed transient states remain.

    Reads ``op.supports()`` once and builds each level with
    :func:`~imclim.reachability.partition_states`.  The next level keeps the
    candidates with no support outside the remaining states; cutting in
    steps keeps the same candidates as cutting the original table once.  The
    cut cannot fail: a remaining state whose every candidate met the
    lower-reach set would have been absorbed.  Only the model's graph is
    kept.  Raises :class:`UnsupportedOperatorError` when the operator
    declares no supports.
    """
    table = op.supports()
    graph = build_graph(table)
    levels = [partition_states(table)]
    while remaining := levels[-1].unabsorbed_transients:
        table = table.restrict(sorted(remaining))
        levels.append(partition_states(table))
    return Decomposition(graph, tuple(levels))


@dataclass(frozen=True)
class Witness:
    """The first non-regular level class backing a negative or inconclusive verdict."""

    level: int
    members: tuple[str, ...]
    cyclicity: int | None
    phases: tuple[tuple[str, ...], ...] = ()  # labels of ``ClassInfo.phases``


@dataclass(frozen=True)
class Verdict:
    convergent: str  # "yes" | "no" | "inconclusive"
    ergodic: str  # "yes" | "no"
    convergent_on_xm: bool
    finitely_generated: bool
    basis: Mapping[str, str]
    witness: Witness | None
    notes: tuple[str, ...] = ()


def _first_nonregular(dec: Decomposition) -> tuple[int, StatePartition, ClassInfo] | None:
    for k, level in enumerate(dec.levels, start=1):
        for info in level.classes:
            if info.is_maximal and info.cyclicity != 1:
                return k, level, info
    return None


def decide_convergence_on_xm(partition: StatePartition) -> bool:
    """Orbits converge on the maximal states iff every maximal class has cyclicity 1."""
    return all(c.cyclicity == 1 for c in partition.classes if c.is_maximal)


def decide_ergodicity(partition: StatePartition) -> str:
    """Every orbit converges to a constant iff there is a single maximal
    communication class, it absorbs everything, and it is regular."""
    maximal = [c for c in partition.classes if c.is_maximal]
    ok = (
        len(maximal) == 1
        and not partition.unabsorbed_transients
        and maximal[0].cyclicity == 1
    )
    return "yes" if ok else "no"


def decide_convergence(op: UpperOperator, dec: Decomposition) -> Verdict:
    """Combine the decomposition into the three-valued convergence verdict.

    All level maximal classes regular certifies convergence for any operator.
    A failed condition refutes convergence only for finitely generated
    operators; otherwise the verdict is "inconclusive", because the condition
    is not necessary in general.
    """
    ergodic = decide_ergodicity(dec.levels[0])
    convergent_on_xm = decide_convergence_on_xm(dec.levels[0])
    basis = {
        "ergodic": BASIS_ERGODIC,
        "convergent_on_xm": BASIS_XM,
    }
    offender = _first_nonregular(dec)
    notes: list[str] = []
    if offender is None:
        convergent = "yes"
        witness = None
        basis["convergent"] = BASIS_SUFFICIENT
    else:
        k, level, info = offender
        space = level.space
        witness = Witness(
            level=k,
            members=space.labels_of(info.members),
            cyclicity=info.cyclicity,
            phases=tuple(space.labels_of(p) for p in info.phases),
        )
        if op.is_finitely_generated:
            convergent = "no"
            basis["convergent"] = BASIS_FINITELY_GENERATED
            notes.append(_FOOTNOTE_NOTE)
        else:
            convergent = "inconclusive"
            basis["convergent"] = BASIS_CONDITION_FAILED
            notes.append(
                "the operator is not finitely generated, so a failed condition "
                "does not refute convergence; orbits may still converge"
            )
    return Verdict(
        convergent=convergent,
        ergodic=ergodic,
        convergent_on_xm=convergent_on_xm,
        finitely_generated=op.is_finitely_generated,
        basis=basis,
        witness=witness,
        notes=tuple(notes),
    )
