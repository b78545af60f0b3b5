"""Upper accessibility graphs: communication classes, cyclicity, regularity.

The graph has an edge ``x -> y`` exactly when the one-step upper probability
of reaching ``y`` from ``x`` is positive, that is, when some candidate pmf at
``x`` has ``y`` in its support.  Adjacency is read off a
:class:`~imclim.operators.SupportTable`, never from thresholded floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import PreconditionError
from .operators import SupportTable

_PALETTE = ("steelblue", "darkorange", "seagreen", "orchid", "firebrick", "goldenrod")
_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"'})  # inside a quoted DOT ID


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
    return AccessGraph(table.space.labels, table.adjacency())


def _strongly_connected_components(n, xs, ys) -> tuple[list[frozenset[int]], np.ndarray]:
    """Iterative Tarjan over the edges ``xs[k] -> ys[k]``, sorted by ``xs``: components
    in reverse topological order, and depth-first forest depths."""
    bounds = np.searchsorted(xs, np.arange(n + 1)).tolist()
    heads = ys.tolist()
    successors = [heads[bounds[v]:bounds[v + 1]] for v in range(n)]
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    depth = [0] * n
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
                depth[v] = len(work) - 1
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
    return components, np.array(depth, dtype=np.intp)


def communication_classes(graph: AccessGraph) -> tuple[ClassInfo, ...]:
    """Communication classes of the graph, ordered by smallest member index.

    One edge list feeds one Tarjan pass, which gives the classes and each
    state's depth-first depth, and one scan, which gives each class its
    closedness (no edge leaves it) and its cyclicity: the gcd, over internal
    edges ``u -> v``, of ``depth(u) + 1 - depth(v)``, or ``None`` without
    internal edges.  The
    tree path from a class's first visited state to a member stays inside
    the class, so the depths are a spanning-tree potential, as breadth-first
    levels are in Denardo (Math. Oper. Res. 1977): with cyclicity ``d``,
    ``depth(v) = depth(u) + 1 (mod d)`` on every internal edge, so the depths
    mod ``d`` are the cyclic subclasses.
    """
    xs, ys = np.nonzero(graph.adjacency)
    sccs, depth = _strongly_connected_components(graph.n, xs, ys)
    sccs.sort(key=min)
    comp_of = np.empty(graph.n, dtype=np.intp)
    for k, members in enumerate(sccs):
        comp_of[list(members)] = k
    cx, cy = comp_of[xs], comp_of[ys]
    open_classes = set(cx[cx != cy].tolist())
    inside = cx == cy
    period = np.zeros(len(sccs), dtype=np.intp)
    np.gcd.at(period, cx[inside], depth[xs[inside]] + 1 - depth[ys[inside]])
    out = []
    for k, members in enumerate(sccs):
        is_closed = k not in open_classes
        cyc = int(period[k]) or None
        phases = ()
        if is_closed and (cyc or 0) > 1:
            order = np.array(sorted(members))
            phase = (depth[order] - depth[order[0]]) % cyc
            phases = tuple(frozenset(order[phase == j].tolist()) for j in range(cyc))
        out.append(ClassInfo(members, is_closed, cyc, phases))
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
            lines.append(f'    label="{title.translate(_DOT_ESCAPES)}";')
            lines.append(f"    color={_PALETTE[k % len(_PALETTE)]};")
            if info.is_maximal:
                lines.append("    penwidth=2;")
            for lab in member_labels:
                lines.append(f'    "{lab.translate(_DOT_ESCAPES)}";')
            lines.append("  }")
    else:
        for lab in sorted(graph.labels):
            lines.append(f'  "{lab.translate(_DOT_ESCAPES)}";')
    for src, dst in sorted((graph.labels[x], graph.labels[y]) for x, y in graph.edges()):
        lines.append(f'  "{src.translate(_DOT_ESCAPES)}" -> "{dst.translate(_DOT_ESCAPES)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
