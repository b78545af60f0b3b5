"""Upper accessibility graphs: communication classes, cyclicity, regularity.

The graph has an edge ``x -> y`` exactly when the one-step upper probability
of reaching ``y`` from ``x`` is positive, that is, when some candidate pmf at
``x`` has ``y`` in its support.  The successor lists are read off a
:class:`~imclim.operators.SupportTable`, never from thresholded floats, and
the classes come from plain-Python passes over them, linear in the edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PreconditionError
from .operators import SupportTable

_PALETTE = ("steelblue", "darkorange", "seagreen", "orchid", "firebrick", "goldenrod")
_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"'})  # inside a quoted DOT ID


@dataclass(frozen=True, eq=False)
class AccessGraph:
    """Directed accessibility graph over labelled states.

    ``successors[x]`` lists the heads of the edges out of ``x`` in ascending
    order.
    """

    labels: tuple[str, ...]
    successors: Sequence[Sequence[int]]

    def __post_init__(self):
        if len(self.successors) != len(self.labels):
            raise PreconditionError(
                f"{len(self.successors)} successor lists for {len(self.labels)} states"
            )

    @property
    def n(self) -> int:
        return len(self.labels)

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((x, y) for x, heads in enumerate(self.successors) for y in heads)

    def labelled_edges(self) -> list[list[str]]:
        """Every edge as its ``[tail, head]`` labels, sorted by those labels."""
        labels = self.labels
        return sorted([labels[x], labels[y]] for x, y in self.edges())

    @property
    def adjacency(self) -> np.ndarray:
        """The edges as a read-only boolean ``(n, n)`` matrix, built on each read.

        A dense view for readers outside the package; the package itself
        works on the successor lists.
        """
        adjacency = np.zeros((self.n, self.n), dtype=bool)
        for x, heads in enumerate(self.successors):
            adjacency[x, list(heads)] = True
        adjacency.setflags(write=False)
        return adjacency


@dataclass(frozen=True)
class ClassInfo:
    """A communication class in the indices of the graph it came from.

    ``cyclicity`` is ``None`` for a class without internal closed paths (a
    singleton with no self-loop); such a class is never regular.  A maximal
    class of cyclicity ``d >= 2`` lists its ``d`` cyclic subclasses in
    ``phases``: every edge inside the class goes from ``phases[j]`` to
    ``phases[(j + 1) % d]``, and ``phases[0]`` holds the smallest member.
    Other classes leave it empty.
    """

    members: frozenset[int]
    is_closed: bool
    cyclicity: int | None
    phases: tuple[frozenset[int], ...] = ()

    @property
    def is_maximal(self) -> bool:
        """No other class is reachable from it; for a communication class, closed."""
        return self.is_closed

    @property
    def is_regular(self) -> bool:
        """Maximal with cyclicity 1; regularity is only asserted for maximal classes."""
        return self.is_closed and self.cyclicity == 1


def build_graph(table: SupportTable) -> AccessGraph:
    """Accessibility graph of the candidate supports in ``table`` (``op.supports()``)."""
    return AccessGraph(table.space.labels, table.successors)


def _strongly_connected_components(successors) -> tuple[list[list[int]], list[int]]:
    """Iterative Tarjan over ascending successor lists: components in reverse
    topological order, and depth-first forest depths."""
    n = len(successors)
    index = [-1] * n
    low = [0] * n
    depth = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    components: list[list[int]] = []
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(successors[root]))]
        while work:
            v, heads = work[-1]
            for w in heads:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    depth[w] = len(work)
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(successors[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
    return components, depth


def communication_classes(graph: AccessGraph) -> tuple[ClassInfo, ...]:
    """Communication classes of the graph, ordered by smallest member index.

    One Tarjan pass over the successor lists gives the classes and each
    state's depth-first depth, and one scan of the edges gives each class its
    closedness (no edge leaves it) and its cyclicity: the gcd, over internal
    edges ``u -> v``, of ``depth(u) + 1 - depth(v)``, or ``None`` without
    internal edges.  The
    tree path from a class's first visited state to a member stays inside
    the class, so the depths are a spanning-tree potential, as breadth-first
    levels are in Denardo (Math. Oper. Res. 1977): with cyclicity ``d``,
    ``depth(v) = depth(u) + 1 (mod d)`` on every internal edge, so the depths
    mod ``d`` are the cyclic subclasses.
    """
    successors = graph.successors
    sccs, depth = _strongly_connected_components(successors)
    for members in sccs:
        members.sort()
    sccs.sort()
    comp_of = [0] * graph.n
    for k, members in enumerate(sccs):
        for v in members:
            comp_of[v] = k
    is_closed = [True] * len(sccs)
    period = [0] * len(sccs)
    for u, heads in enumerate(successors):
        k = comp_of[u]
        for v in heads:
            if comp_of[v] != k:
                is_closed[k] = False
            else:
                period[k] = math.gcd(period[k], depth[u] + 1 - depth[v])
    out = []
    for k, members in enumerate(sccs):
        cyc = period[k] or None
        phases = ()
        if is_closed[k] and (cyc or 0) > 1:
            groups: list[list[int]] = [[] for _ in range(cyc)]
            for v in members:
                groups[(depth[v] - depth[members[0]]) % cyc].append(v)
            phases = tuple(map(frozenset, groups))
        out.append(ClassInfo(frozenset(members), is_closed[k], cyc, phases))
    return tuple(out)


def to_dot(graph: AccessGraph) -> str:
    """Deterministic DOT text, one coloured cluster per communication class.

    Nodes are ordered by state label and maximal classes are marked, so the
    output is byte-stable for a fixed input.
    """
    lines = ["digraph access {", "  rankdir=LR;", '  node [shape=circle];']
    ordered = sorted(communication_classes(graph),
                     key=lambda c: min(graph.labels[i] for i in c.members))
    for k, info in enumerate(ordered):
        member_labels = sorted(graph.labels[i] for i in info.members)
        title = "{" + ", ".join(member_labels) + "}"
        if info.is_maximal:
            title += " (maximal)"
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f'    label="{title.translate(_DOT_ESCAPES)}";')
        lines.append(f"    color={_PALETTE[k % len(_PALETTE)]};")
        if info.is_maximal:
            lines.append("    penwidth=2;")
        for lab in member_labels:
            lines.append(f'    "{lab.translate(_DOT_ESCAPES)}";')
        lines.append("  }")
    for src, dst in graph.labelled_edges():
        lines.append(f'  "{src.translate(_DOT_ESCAPES)}" -> "{dst.translate(_DOT_ESCAPES)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
