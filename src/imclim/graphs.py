"""Upper accessibility graphs: communication classes, cyclicity, regularity.

The graph has an edge ``x -> y`` exactly when the one-step upper probability
of reaching ``y`` from ``x`` is positive.  Adjacency comes from the operator's
structural hook, never from thresholded floats: finitely generated operators
read it off their pmf supports, and only closed-form operators evaluate
indicators in exact rational arithmetic.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import PreconditionError
from .operators import UpperOperator

_PALETTE = ("steelblue", "darkorange", "seagreen", "orchid", "firebrick", "goldenrod")


@dataclass(frozen=True, eq=False)
class AccessGraph:
    """Directed accessibility graph over labelled states."""

    labels: tuple[str, ...]
    adjacency: np.ndarray  # boolean (n, n); read-only after construction

    def __post_init__(self):
        adj = np.array(self.adjacency, dtype=bool)
        n = len(self.labels)
        if adj.shape != (n, n):
            raise PreconditionError(
                f"adjacency has shape {adj.shape}, expected ({n}, {n})"
            )
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self) -> int:
        return len(self.labels)

    def edges(self) -> tuple[tuple[int, int], ...]:
        xs, ys = np.nonzero(self.adjacency)
        return tuple(zip(xs.tolist(), ys.tolist()))


@dataclass(frozen=True)
class ClassInfo:
    """A communication class with its structural flags.

    ``cyclicity`` is ``None`` for a class without internal closed paths (a
    singleton with no self-loop); such a class is never regular.  Regularity
    is only asserted for maximal classes.
    """

    members: frozenset[int]
    is_maximal: bool
    is_closed: bool
    cyclicity: int | None
    is_regular: bool


def build_graph(op: UpperOperator) -> AccessGraph:
    """Accessibility graph of ``op``; requires exact structure (see :meth:`UpperOperator.adjacency`)."""
    return AccessGraph(op.space.labels, op.adjacency())


def _strongly_connected_components(adjacency: np.ndarray) -> list[frozenset[int]]:
    """Iterative Tarjan; components returned in reverse topological order."""
    n = adjacency.shape[0]
    successors = [np.flatnonzero(adjacency[v]).tolist() for v in range(n)]
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    components: list[frozenset[int]] = []
    for root in range(n):
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, start = work[-1]
            if start == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for i in range(start, len(successors[v])):
                w = successors[v][i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            work.pop()
            if low[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == v:
                        break
                components.append(frozenset(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


def cyclicity(graph: AccessGraph, members: Iterable[int]) -> int | None:
    """Greatest common divisor of the lengths of closed paths inside the class.

    Computed as the gcd, over the class-internal edges ``u -> v``, of
    ``level(u) + 1 - level(v)`` with breadth-first levels from an arbitrary
    root; linear in the class size.  Returns ``None`` for a class without
    internal closed paths (cyclicity undefined there).  Raises
    :class:`PreconditionError` when the members are not strongly connected.
    """
    m = tuple(sorted(set(members)))
    if not m:
        raise PreconditionError("cyclicity of an empty class is undefined")
    if m[0] < 0 or m[-1] >= graph.n:
        raise PreconditionError(f"class members out of range: {m}")
    block = graph.adjacency[np.ix_(m, m)]
    if len(_strongly_connected_components(block)) != 1:
        raise PreconditionError("cyclicity requires a strongly connected class")
    if not block.any():
        return None
    level = {0: 0}
    frontier = deque([0])
    while frontier:
        u = frontier.popleft()
        for w in np.flatnonzero(block[u]):
            w = int(w)
            if w not in level:
                level[w] = level[u] + 1
                frontier.append(w)
    g = 0
    for u, v in zip(*np.nonzero(block)):
        g = math.gcd(g, level[int(u)] + 1 - level[int(v)])
    return g


def communication_classes(graph: AccessGraph) -> tuple[ClassInfo, ...]:
    """Communication classes of the graph, ordered by smallest member index.

    Closedness comes from a scan for edges leaving the member set.  For a
    communication class, maximal (no other class reachable from it) and
    closed are the same property, so ``is_maximal`` is ``is_closed``.
    """
    sccs = _strongly_connected_components(graph.adjacency)
    sccs.sort(key=min)
    comp_of = np.empty(graph.n, dtype=np.intp)
    for k, members in enumerate(sccs):
        comp_of[list(members)] = k
    xs, ys = np.nonzero(graph.adjacency)
    open_classes = set(comp_of[xs[comp_of[xs] != comp_of[ys]]].tolist())
    out = []
    for k, members in enumerate(sccs):
        is_closed = k not in open_classes
        cyc = cyclicity(graph, members)
        out.append(
            ClassInfo(
                members=members,
                is_maximal=is_closed,
                is_closed=is_closed,
                cyclicity=cyc,
                is_regular=bool(is_closed and cyc == 1),
            )
        )
    return tuple(out)


def to_dot(graph: AccessGraph, classes: Sequence[ClassInfo] | None = None) -> str:
    """Deterministic DOT text, one coloured cluster per communication class.

    Nodes are ordered by state label and maximal classes are marked, so the
    output is byte-stable for a fixed input.
    """
    lines = ["digraph access {", "  rankdir=LR;", '  node [shape=circle];']
    if classes:
        ordered = sorted(classes, key=lambda c: min(graph.labels[i] for i in c.members))
        for k, info in enumerate(ordered):
            member_labels = sorted(graph.labels[i] for i in info.members)
            title = "{" + ", ".join(member_labels) + "}"
            if info.is_maximal:
                title += " (maximal)"
            lines.append(f"  subgraph cluster_{k} {{")
            lines.append(f'    label="{title}";')
            lines.append(f"    color={_PALETTE[k % len(_PALETTE)]};")
            if info.is_maximal:
                lines.append("    penwidth=2;")
            for lab in member_labels:
                lines.append(f'    "{lab}";')
            lines.append("  }")
    else:
        for lab in sorted(graph.labels):
            lines.append(f'  "{lab}";')
    edge_labels = sorted(
        (graph.labels[x], graph.labels[y]) for x, y in graph.edges()
    )
    for src, dst in edge_labels:
        lines.append(f'  "{src}" -> "{dst}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
