"""Seeded random instance generators, brute-force oracles and test-only helpers shared by the tests."""

from __future__ import annotations

import itertools
import json
import math
import random
import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import IO

import numpy as np

from imclim import (
    AccessGraph,
    ClassInfo,
    CounterexampleOperator,
    CredalOperator,
    Decomposition,
    DimensionMismatchError,
    ModelValidationError,
    NotWellDefinedError,
    OrbitCheck,
    OrbitParams,
    OrbitResult,
    PreconditionError,
    StatePartition,
    StateSpace,
    SupportTable,
    UpperOperator,
    build_graph,
    communication_classes,
    iterate_orbit,
    parse_model,
    partition_states,
)
from imclim.modelio import MAX_DECIMAL_EXPONENT, RATIONAL_HINT, parse_rational_pair
from imclim.reachability import _join_rounds, _reach_sets

LABELS = "abcdefgh"


def build(labels, sets) -> CredalOperator:
    """``parse_model`` on the states ``labels`` and the credal sets
    ``{label: [{target: mass}]}``, each mass written as ``str(mass)``."""
    credal_sets = {x: [{y: str(m) for y, m in p.items()} for p in ps] for x, ps in sets.items()}
    return parse_model({"states": list(labels), "credal_sets": credal_sets})


def random_pmf(rng: random.Random, labels, max_den: int = 8) -> dict[str, Fraction]:
    """Random pmf over ``labels`` with denominator at most ``max_den`` and a random support."""
    support = sorted(rng.sample(range(len(labels)), rng.randint(1, len(labels))))
    q = rng.randint(1, max_den)
    cuts = sorted(rng.randint(0, q) for _ in range(len(support) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    return {labels[idx]: Fraction(part, q) for idx, part in zip(support, parts)}


def labels_of(space: StateSpace, indices) -> tuple[str, ...]:
    """The sorted labels of the states ``indices`` of ``space``."""
    return tuple(sorted(space.labels[i] for i in indices))


def masses(p) -> tuple[tuple[int, Fraction], ...]:
    """The pmf's ascending ``(index, mass)`` pairs, each mass a ``Fraction``."""
    return tuple((i, Fraction(num, den)) for i, num, den in p)


def support(p) -> frozenset[int]:
    return frozenset(i for i, _, _ in p)


def identity_operator(labels) -> CredalOperator:
    """Operator whose only candidate at each state is the point mass on itself."""
    return build(labels, {x: [{x: 1}] for x in labels})


def maximal_states(part: StatePartition) -> frozenset[int]:
    """The union of the level's maximal classes, the states of round 0."""
    return frozenset(x for x, k in enumerate(part.rounds) if k == 0)


def absorbed_transients(part: StatePartition) -> frozenset[int]:
    """The transient states from which the level's maximal states are lower reachable."""
    return frozenset(x for x, k in enumerate(part.rounds) if k)


def unabsorbed_transients(part: StatePartition) -> frozenset[int]:
    """The transient states from which the level's maximal states are not lower reachable."""
    return frozenset(x for x, k in enumerate(part.rounds) if k is None)


def level_partitions(op: UpperOperator):
    """The cut loop of ``decompose(op)``, replayed: per level, the model's
    indices of its states, its cut support table and ``partition_states`` of
    that table.  Position ``i`` of the level is model state ``states[i]``."""
    table = op.supports()
    states = tuple(range(len(table.space)))
    while True:
        part = partition_states(table)
        yield states, table, part
        local = sorted(unabsorbed_transients(part))
        if not local:
            return
        table = table.restrict(local)
        states = tuple(states[i] for i in local)


def level_states(op: UpperOperator) -> tuple[tuple[int, ...], ...]:
    """Per level of ``decompose(op)``, the model's indices of the level's states."""
    return tuple(states for states, _, _ in level_partitions(op))


def maximal_classes(part: StatePartition) -> tuple[frozenset[int], ...]:
    """The members of the level's maximal classes, in class order."""
    return tuple(c.members for c in part.classes if c.is_maximal)


def absorbed_at(dec: Decomposition, k: int) -> frozenset[int]:
    """The model states that level ``k`` of ``dec`` absorbs."""
    return frozenset(x for x, (e, r) in enumerate(zip(dec.exits, dec.rounds)) if e == k and r)


def remaining_after(dec: Decomposition, k: int) -> frozenset[int]:
    """The model states that level ``k`` of ``dec`` leaves to the next level."""
    return frozenset(x for x, e in enumerate(dec.exits) if e > k)


def partition_pieces(op: UpperOperator) -> tuple[frozenset[int], ...]:
    """All level maximal classes and absorbed sets of ``decompose(op)``, in the
    model's indices; together they partition the space."""
    pieces = []
    for states, _, part in level_partitions(op):
        for piece in (*maximal_classes(part), absorbed_transients(part)):
            if piece:
                pieces.append(frozenset(states[i] for i in piece))
    return tuple(pieces)


def dense(p, n: int) -> tuple[Fraction, ...]:
    """The pmf's masses as a length-``n`` tuple, zero off the support."""
    mass = dict(masses(p))
    return tuple(mass.get(i, Fraction(0)) for i in range(n))


def random_operator(rng, n=None, max_pmfs=3, max_den=8) -> CredalOperator:
    labels = LABELS[:rng.randint(2, 5) if n is None else n]
    return build(labels, {
        x: [random_pmf(rng, labels, max_den) for _ in range(rng.randint(1, max_pmfs))]
        for x in labels
    })


def random_wide_operator(rng: random.Random, n: int, max_pmfs: int = 3) -> CredalOperator:
    """Operator over ``n`` states with up to ``max_pmfs`` sparse candidates per state.

    Supports have at most four states, so wide operators keep non-trivial
    structure: several classes, transients and cycles.
    """
    labels = [f"s{i}" for i in range(n)]
    sets = {}
    for x in labels:
        sets[x] = []
        for _ in range(rng.randint(1, max_pmfs)):
            targets = rng.sample(labels, rng.randint(1, min(n, 4)))
            weights = [rng.randint(1, 6) for _ in targets]
            sets[x].append({y: Fraction(w, sum(weights)) for y, w in zip(targets, weights)})
    return build(labels, sets)


def random_rational_function(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-16, 16), rng.randint(1, 8)) for _ in range(n))


def random_float_function(rng: random.Random, n: int) -> np.ndarray:
    if rng.random() < 0.5:
        return np.array([rng.random() for _ in range(n)])
    return np.array([float(rng.randint(0, 1)) for _ in range(n)])


def random_subset(rng: random.Random, n: int, allow_full: bool = True) -> frozenset[int]:
    while True:
        s = frozenset(i for i in range(n) if rng.random() < 0.5)
        if not s:
            continue
        if not allow_full and len(s) == n:
            continue
        return s


def block_cyclic_operator(
    rng: random.Random, blocks: int, block_size_max: int = 2
) -> tuple[CredalOperator, list[list[int]]]:
    """Single-class operator whose accessibility graph has cyclicity ``blocks``.

    States are grouped into consecutive blocks; every candidate pmf at a state
    in block i is supported inside block i + 1 (mod blocks), so every closed
    path length is a multiple of the block count.
    """
    sizes = [rng.randint(1, block_size_max) for _ in range(blocks)]
    n = sum(sizes)
    partition: list[list[int]] = []
    start = 0
    for size in sizes:
        partition.append(list(range(start, start + size)))
        start += size
    labels = LABELS[:n]
    sets = {}
    for b, block in enumerate(partition):
        target = [labels[y] for y in partition[(b + 1) % blocks]]
        for x in block:
            pmfs = sets[labels[x]] = []
            for _ in range(rng.randint(1, 2)):
                # spread a random unit mass across the whole target block so
                # the block-to-block structure is strongly connected
                q = rng.randint(len(target), 8)
                cuts = sorted(rng.randint(1, q - 1) for _ in range(len(target) - 1))
                parts = [b2 - a2 for a2, b2 in zip([0] + cuts, cuts + [q])]
                if all(part > 0 for part in parts):
                    pmfs.append({y: Fraction(part, q) for y, part in zip(target, parts)})
            if not pmfs:
                pmfs.append({y: Fraction(1, len(target)) for y in target})
    return build(labels, sets), partition


def random_single_class_operator(
    rng: random.Random, max_states: int = 4
) -> CredalOperator:
    """Rejection-sample an operator whose graph is one communication class."""
    while True:
        op = random_operator(rng, n=rng.randint(1, max_states))
        classes = communication_classes(build_graph(op.supports()))
        if len(classes) == 1:
            return op


def _spread(rng: random.Random, targets) -> dict[str, Fraction]:
    """A pmf with positive random mass on each of ``targets``."""
    weights = [rng.randint(1, 4) for _ in targets]
    return {t: Fraction(w, sum(weights)) for t, w in zip(targets, weights)}


def planted_cyclic_operator(
    rng: random.Random,
) -> tuple[CredalOperator, int, tuple[tuple[int, ...], ...]]:
    """A "no" model: a closed class of cyclicity 2, 3 or 4 planted at level 1, 2 or 3.

    Below the planted level ``L``, level ``l`` holds an absorbing state
    ``s_l`` (its pmf ``{s_l: 1}`` keeps it from being absorbed earlier; a
    second pmf leaks into ``s_(l-1)``, which keeps it off level ``l - 1``)
    and, at random, a transient ``t_l`` whose every pmf meets ``s_l``.  At
    level 1 of a level-1 plant, ``s_1`` sits beside the class.  Each state of
    the class's phase ``j`` spreads one pmf over all of phase ``j + 1``, so
    the class has cyclicity exactly ``d``; it may add a pmf on part of that
    phase and, below level 1, a pmf that leaks mass below level ``L``.  One
    state's pmf leaks into ``s_(L-1)`` only, which keeps the class off level
    ``L - 1``.  A transient at level ``L`` may be absorbed into the class.
    Labels are drawn at random and states are shuffled.

    Returns the operator, ``L`` and the class's phases as state indices, in
    edge order from the one holding the class's smallest index.
    """
    level = rng.randint(1, 3)
    d = rng.choice((2, 3, 4))
    phases = [[f"c{j}.{k}" for k in range(rng.randint(1, 2))] for j in range(d)]
    cls = [x for phase in phases for x in phase]
    pmfs: dict[str, list[dict]] = {}
    below: list[str] = []
    for lev in range(1, max(level, 2)):
        s = f"s{lev}"
        pmfs[s] = [{s: Fraction(1)}]
        if lev > 1:
            pmfs[s].append(_spread(rng, [f"s{lev - 1}", s]))
        if rng.random() < 0.5:
            t = f"t{lev}"
            pmfs[t] = [_spread(rng, [s, t])]
            if rng.random() < 0.5:
                pmfs[t].append(_spread(rng, [s] + rng.sample(below + cls, rng.randint(0, 2))))
            below.append(t)
        below.append(s)
    for j, phase in enumerate(phases):
        target = phases[(j + 1) % d]
        for x in phase:
            pmfs[x] = [_spread(rng, target)]
            if rng.random() < 0.5:
                pmfs[x].append(_spread(rng, rng.sample(target, rng.randint(1, len(target)))))
            if level > 1 and rng.random() < 0.5:
                leak = rng.sample(below, rng.randint(1, min(2, len(below))))
                leak += rng.sample(cls, rng.randint(0, 2))
                pmfs[x].append(_spread(rng, leak))
    if level > 1:
        pmfs[rng.choice(cls)].append(
            _spread(rng, [f"s{level - 1}"] + rng.sample(cls, rng.randint(0, 2)))
        )
    if rng.random() < 0.5:
        pmfs["u"] = [_spread(rng, rng.sample(cls, rng.randint(1, 2)))]
        if level > 1 and rng.random() < 0.5:
            pmfs["u"].append(_spread(rng, ["u"] + rng.sample(below, 1)))
    names = list(pmfs)
    rng.shuffle(names)
    label = dict(zip(names, rng.sample("abcdefghijklmnopqrstuvwxyz", len(names))))
    op = build(
        [label[x] for x in names],
        {label[x]: [{label[y]: m for y, m in p.items()} for p in ps] for x, ps in pmfs.items()},
    )
    index = {x: i for i, x in enumerate(names)}
    cyclic = [tuple(sorted(index[x] for x in phase)) for phase in phases]
    first = min(range(d), key=lambda j: cyclic[j][0])
    return op, level, tuple(cyclic[first:] + cyclic[:first])


def graph_from_adjacency(labels, adjacency) -> AccessGraph:
    """The graph whose edges are the true entries of the boolean ``(n, n)`` matrix."""
    return AccessGraph(tuple(labels), tuple(tuple(np.flatnonzero(row).tolist()) for row in adjacency))


def chain_operator(n: int, rng: random.Random | None = None) -> CredalOperator:
    """``c0 -> {c0: 1}`` and ``c_i -> {c_(i-1): 1/2, c_i: 1/2}``: one new reach round per state.

    With ``rng``, the states are listed in a random order.
    """
    names = [f"c{i}" for i in range(n)]
    sets = {names[0]: [{names[0]: 1}]}
    for i in range(1, n):
        sets[names[i]] = [{names[i - 1]: Fraction(1, 2), names[i]: Fraction(1, 2)}]
    if rng is not None:
        rng.shuffle(names)
    return build(names, sets)


def staircase_operator(n: int, rng: random.Random | None = None) -> CredalOperator:
    """``t_i`` has the pmfs ``{t_i: 1}`` and ``{t_(i+1): 1}``, the last state only
    ``{t_(n-1): 1}``: each decomposition level peels off one state.

    With ``rng``, the states are listed in a random order.
    """
    names = [f"t{i}" for i in range(n)]
    sets = {x: [{x: 1}, {y: 1}] for x, y in zip(names, names[1:])}
    sets[names[-1]] = [{names[-1]: 1}]
    if rng is not None:
        rng.shuffle(names)
    return build(names, sets)


def seeded_families(count: int):
    """``count`` operators from one seed, cycling through five families: small
    random, wide, planted cyclic, chains of up to 40 and staircases of up to 20
    states."""
    rng = random.Random(2021)
    for k in range(count):
        kind = k % 5
        if kind == 0:
            yield random_operator(rng, n=rng.randint(1, 7), max_pmfs=rng.randint(1, 4))
        elif kind == 1:
            yield random_wide_operator(rng, rng.randint(2, 40), max_pmfs=rng.randint(1, 4))
        elif kind == 2:
            yield planted_cyclic_operator(rng)[0]
        elif kind == 3:
            yield chain_operator(rng.randint(1, 40), rng)
        else:
            yield staircase_operator(rng.randint(1, 20), rng)


def random_scc_graph(rng: random.Random, max_nodes: int = 8) -> AccessGraph:
    """Random strongly connected accessibility graph.

    Mixes two constructions: a directed cycle with optional extra edges
    (controllable cyclicity) and a strongly connected component carved out of
    a dense random digraph.
    """
    if rng.random() < 0.5:
        n = rng.randint(1, max_nodes)
        adjacency = np.zeros((n, n), dtype=bool)
        for i in range(n):
            adjacency[i, (i + 1) % n] = True
        for _ in range(rng.randint(0, n)):
            if rng.random() < 0.5:
                adjacency[rng.randrange(n), rng.randrange(n)] = True
        return graph_from_adjacency(tuple(f"s{i}" for i in range(n)), adjacency)
    n = rng.randint(1, max_nodes)
    p = rng.choice([0.15, 0.3, 0.5])
    adjacency = np.array([[rng.random() < p for _ in range(n)] for _ in range(n)])
    graph = graph_from_adjacency(tuple(f"s{i}" for i in range(n)), adjacency)
    classes = communication_classes(graph)
    members = sorted(rng.choice(classes).members)
    block = adjacency[np.ix_(members, members)]
    return graph_from_adjacency(tuple(f"s{i}" for i in members), block)


def random_phased_digraph(rng: random.Random, max_nodes: int = 10) -> AccessGraph:
    """Random digraph with a planted period, transient classes and loopless singletons.

    Each state gets one of ``p`` phases (``p`` from 1 to 5) and every edge
    goes from phase ``i`` to phase ``i + 1 mod p``, so every closed path
    length is a multiple of ``p``; with ``p = 1`` any edge, self-loops
    included, may appear.  Sparse draws leave many classes transient and
    many singletons without a loop.
    """
    n = rng.randint(1, max_nodes)
    p = rng.randint(1, 5)
    phase = [i % p for i in range(n)]
    rng.shuffle(phase)
    density = rng.choice([0.1, 0.3, 0.6, 0.9])
    adjacency = np.array(
        [[phase[y] == (phase[x] + 1) % p and rng.random() < density for y in range(n)]
         for x in range(n)],
        dtype=bool,
    )
    return graph_from_adjacency(tuple(f"s{i}" for i in range(n)), adjacency)


# ---------------------------------------------------------------------------
# exact evaluation: the reference for ``apply`` and the support tables


def expectation(p, values) -> Fraction:
    """Expected value of ``values`` under ``p``; exact when the values are rational."""
    return sum(m * values[i] for i, m in masses(p))


def _counterexample_exact(fa: Fraction, fb: Fraction, fc: Fraction) -> tuple[Fraction, ...]:
    # max over t in [0, 1/2] of (fa - fc) t^2 + (fb - fc) t + fc: the endpoints
    # t = 0 and t = 1/2, and the vertex when the quadratic is concave with its
    # maximiser strictly inside
    half = Fraction(1, 2)
    a2, a1 = fa - fc, fb - fc
    curve = max(fc, a2 * half * half + a1 * half + fc)
    if a2 < 0:
        vertex = -a1 / (2 * a2)
        if 0 < vertex < half:
            curve = max(curve, a2 * vertex * vertex + a1 * vertex + fc)
    return (fa, max(fa, curve), max(fa, fb))


def apply_exact(op: UpperOperator, f) -> tuple[Fraction, ...]:
    """The operator on rational inputs, exactly: the reference for ``op.apply``.

    A credal operator takes the per-state maximum of exact expectations; the
    builtin counterexample runs its closed form in :class:`Fraction`.
    """
    if len(f) != op.n:
        raise DimensionMismatchError(f"function has length {len(f)}, expected {op.n}")
    vals = tuple(Fraction(x) for x in f)
    if isinstance(op, CounterexampleOperator):
        return _counterexample_exact(*vals)
    return tuple(max(expectation(p, vals) for p in sets) for sets in op.pmfs)


def _target_set(op: UpperOperator, targets) -> frozenset[int]:
    idx = frozenset([targets]) if isinstance(targets, int) else frozenset(targets)
    for i in idx:
        if not 0 <= i < op.n:
            raise ModelValidationError(f"state index {i} out of range 0..{op.n - 1}")
    return idx


def apply_lower_exact(op: UpperOperator, f) -> tuple[Fraction, ...]:
    """The lower operator as the conjugate map f -> -upper(-f)."""
    return tuple(-v for v in apply_exact(op, tuple(-Fraction(x) for x in f)))


def upper_indicator(op: UpperOperator, targets) -> tuple[Fraction, ...]:
    """Exact per-state upper probability of hitting ``targets`` in one step."""
    idx = _target_set(op, targets)
    return apply_exact(op, tuple(Fraction(int(i in idx)) for i in range(op.n)))


def lower_indicator(op: UpperOperator, targets) -> tuple[Fraction, ...]:
    """Exact one-step lower probabilities: one minus the upper value of the complement."""
    complement = frozenset(range(op.n)) - _target_set(op, targets)
    return tuple(1 - v for v in upper_indicator(op, complement))


def exact_adjacency(op: UpperOperator) -> np.ndarray:
    """Boolean ``(n, n)`` matrix: ``x -> y`` iff the upper probability of ``y`` at ``x`` is > 0."""
    return np.array([upper_indicator(op, y) for y in range(op.n)]).T > 0


def exact_lower_positive(op: UpperOperator, targets) -> frozenset[int]:
    """States at which the one-step lower probability of ``targets`` is positive."""
    return frozenset(x for x, v in enumerate(lower_indicator(op, targets)) if v > 0)


# ---------------------------------------------------------------------------
# the boolean support table: the reference for the support-tuple structure


@dataclass(frozen=True, eq=False)
class DenseTable:
    """The numpy boolean support table that the support tuples replaced, kept as the reference.

    ``rows[k]`` is the support of candidate ``k``, a boolean vector over
    ``space``; the candidates of state ``x`` are the rows from ``starts[x]``
    up to the next state's start.
    """

    space: StateSpace
    starts: np.ndarray  # (n,) ascending row offsets, starts[0] == 0
    rows: np.ndarray  # (candidates, n) bool

    def adjacency(self) -> np.ndarray:
        """Boolean ``(n, n)`` matrix: ``x -> y`` iff some candidate at ``x`` puts mass on ``y``."""
        return np.logical_or.reduceat(self.rows, self.starts, axis=0)

    def lower_positive(self, targets) -> frozenset[int]:
        """States at which every candidate puts mass on ``targets``."""
        meets = self.rows[:, sorted(targets)].any(axis=1)
        return frozenset(np.flatnonzero(np.logical_and.reduceat(meets, self.starts)).tolist())

    def lower_reach(self, targets) -> tuple[frozenset[int], ...]:
        """The fixpoint of ``lower_positive`` from ``targets``, as the growing sets."""
        current = frozenset(targets)
        sequence = [current]
        while additions := self.lower_positive(current) - current:
            current = current | additions
            sequence.append(current)
        return tuple(sequence)

    def restrict(self, keep) -> "DenseTable":
        """Table over ``keep``: the rows with no support outside ``keep``, columns
        renumbered; raises :class:`NotWellDefinedError` naming the first kept
        state that keeps no row."""
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
        return DenseTable(space, starts, self.rows[kept][:, keep])


def dense_table(table: SupportTable) -> DenseTable:
    """The support tuples of ``table`` as boolean rows."""
    pmfs = [p for sets in table.supports for p in sets]
    rows = np.zeros((len(pmfs), len(table.space)), dtype=bool)
    for k, p in enumerate(pmfs):
        rows[k, list(p)] = True
    starts = np.cumsum([0] + [len(sets) for sets in table.supports[:-1]]).astype(np.intp)
    return DenseTable(table.space, starts, rows)


def reference_classes(adjacency: np.ndarray) -> list[tuple]:
    """``(members, is_closed, cyclicity, phases)`` of each communication class, ordered
    by smallest member, without a depth-first search.

    Members from the reflexive-transitive closure (Warshall), closedness from
    the block of edges leaving the class, cyclicity by the closed walks of
    :func:`closed_walk_period` and the phases from breadth-first distances
    inside the class, modulo the cyclicity.
    """
    n = len(adjacency)
    reach = adjacency | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    mutual = reach & reach.T
    out, seen = [], set()
    for x in range(n):
        if x in seen:
            continue
        members = np.flatnonzero(mutual[x]).tolist()
        seen.update(members)
        others = sorted(set(range(n)) - set(members))
        is_closed = not adjacency[np.ix_(members, others)].any()
        cyc = _block_period(adjacency[np.ix_(members, members)])
        phases = ()
        if is_closed and (cyc or 0) > 1:
            distance = {members[0]: 0}
            queue = [members[0]]
            for u in queue:
                for y in members:
                    if adjacency[u, y] and y not in distance:
                        distance[y] = distance[u] + 1
                        queue.append(y)
            phases = tuple(frozenset(v for v in members if distance[v] % cyc == j)
                           for j in range(cyc))
        out.append((frozenset(members), is_closed, cyc, phases))
    return out


# ---------------------------------------------------------------------------
# brute-force oracles


def lower_direct(op: CredalOperator, f) -> tuple[Fraction, ...]:
    """Lower operator by direct per-state minimum expectation (independent of conjugacy)."""
    vals = tuple(Fraction(x) for x in f)
    return tuple(min(expectation(p, vals) for p in sets) for sets in op.pmfs)


def brute_force_power(op: CredalOperator, f, steps: int) -> tuple[Fraction, ...]:
    """n-step upper operator by enumerating every per-step pmf selection.

    The iterated maximum decouples per state, so the n-step value equals the
    pointwise maximum of ``M_1 (M_2 (... (M_k f)))`` over all sequences of
    selection matrices, one candidate pmf per state per step.
    """
    vals = tuple(Fraction(x) for x in f)
    selections = list(itertools.product(*op.pmfs))
    best: list[Fraction] | None = None
    for sequence in itertools.product(selections, repeat=steps):
        vec = vals
        for selection in reversed(sequence):
            vec = tuple(expectation(selection[x], vec) for x in range(op.n))
        best = list(vec) if best is None else [max(a, b) for a, b in zip(best, vec)]
    return tuple(best)


def brute_force_lower_reach(op, targets: frozenset[int]) -> dict[int, frozenset[int]]:
    """Exact sets {x : lower n-step probability of targets at x > 0} for n = 0..|X|."""
    indicator = tuple(Fraction(int(i in targets)) for i in range(op.n))
    out = {0: frozenset(targets)}
    g = indicator
    for step in range(1, op.n + 1):
        g = apply_lower_exact(op, g)
        out[step] = frozenset(i for i, v in enumerate(g) if v > 0)
    return out


def is_closed(op: UpperOperator, members) -> bool:
    """Exact test that no one-step upper probability leaves the class."""
    inside = frozenset(members)
    if not inside:
        raise PreconditionError("closedness of an empty class is undefined")
    outside = frozenset(range(op.n)) - inside
    if not outside:
        return True
    leak = upper_indicator(op, outside)
    return all(leak[x] == 0 for x in inside)


def closed_subsets(op) -> list[frozenset[int]]:
    """All non-empty closed subsets by exhaustive enumeration (small spaces only).

    Reads the edges once from exact indicator evaluation: a subset is closed
    when no edge leaves it.
    """
    n = op.n
    adjacency = exact_adjacency(op)
    found = []
    for bits in range(1, 2**n):
        inside = [i for i in range(n) if bits >> i & 1]
        outside = [i for i in range(n) if not bits >> i & 1]
        if not adjacency[np.ix_(inside, outside)].any():
            found.append(frozenset(inside))
    return found


def lower_reach_set(
    table: SupportTable, targets
) -> tuple[frozenset[int], tuple[frozenset[int], ...]]:
    """States from which the closed class ``targets`` is lower reachable.

    Grows the class one round at a time with the join rounds that
    ``partition_states`` computes: a state joins as soon as its one-step
    lower probability of the current set is positive.  The fixpoint is
    reached after at most ``n - |targets|`` rounds.  Returns the fixpoint
    together with the whole growing sequence.  Raises
    :class:`ModelValidationError` for a target that is no state index, and
    :class:`PreconditionError` for an empty or non-closed ``targets``.
    """
    targets = table._indices(targets)
    if not targets:
        raise PreconditionError("the target class must be non-empty")
    inside = frozenset(targets)
    if any(not inside.issuperset(table.successors[x]) for x in targets):
        raise PreconditionError(
            f"class {{{', '.join(labels_of(table.space, targets))}}} is not closed"
        )
    sequence = _reach_sets(_join_rounds(table, targets))
    return sequence[-1], sequence


def is_absorbing(op: UpperOperator, targets) -> bool:
    """True when the closed class ``targets`` is lower reachable from every state."""
    reach, _ = lower_reach_set(op.supports(), targets)
    return reach == frozenset(range(op.n))


def regularity_oracle(graph: AccessGraph, members) -> bool:
    """Boolean-matrix-power regularity check, used to cross-validate the gcd route.

    True exactly when some power ``k <= n^2`` of the class-internal adjacency
    block is all-true and the block stays all-true at ``k + 1``.
    """
    m = tuple(sorted(set(members)))
    block = graph.adjacency[np.ix_(m, m)].astype(np.uint8)
    if not block.any():
        return False
    power = block.copy()
    for _ in range(len(m) ** 2):
        if power.all():
            successor = (power @ block) > 0
            return bool(successor.all())
        power = ((power @ block) > 0).astype(np.uint8)
    return bool(power.all() and ((power @ block) > 0).all())


def closed_walk_period(graph: AccessGraph, members) -> int | None:
    """Cyclicity by boolean matrix powers, independent of any traversal.

    The gcd of the lengths ``k <= |C|`` for which the power ``B^k`` of the
    class block ``B`` has a true diagonal entry, i.e. for which a closed walk
    of length ``k`` exists inside the class.  Every simple cycle is at most
    ``|C|`` long and every closed walk is a union of simple cycles, so this is
    the gcd of all closed path lengths.  ``None`` when there is no such ``k``.
    """
    m = sorted(set(members))
    return _block_period(graph.adjacency[np.ix_(m, m)])


def _block_period(block: np.ndarray) -> int | None:
    block = block.astype(np.int64)
    power = np.eye(len(block), dtype=np.int64)
    g = 0
    for k in range(1, len(block) + 1):
        power = ((power @ block) > 0).astype(np.int64)
        if power.diagonal().any():
            g = math.gcd(g, k)
    return g or None


# ---------------------------------------------------------------------------
# operator restriction: the reference for ``SupportTable.restrict``


def restrict(op: UpperOperator, keep) -> UpperOperator:
    """Operator over ``keep`` built from the candidates supported inside ``keep``.

    A kept pmf is the parent pmf with its indices renumbered.  Restricting to
    the whole space returns ``op`` itself.  The closed-form builtin restricts
    its point-mass candidates: the curve at ``b`` is a point mass only at
    ``t = 0``, where it sits on ``c``.  Raises :class:`NotWellDefinedError`
    naming the first kept state that keeps no pmf.
    """
    keep = tuple(sorted(set(keep)))
    if keep == tuple(range(op.n)):
        return op
    if isinstance(op, CounterexampleOperator):
        a, b, c = (((i, 1, 1),) for i in range(3))
        pmfs = ((a,), (a, c), (a, b))
    else:
        pmfs = op.pmfs
    if not keep:
        raise ModelValidationError("cannot restrict to an empty class")
    if keep[0] < 0 or keep[-1] >= op.n:
        raise ModelValidationError(f"restriction indices out of range: {keep}")
    labels = op.space.labels
    sub_space = op.space.subset(keep)
    sets = {}
    for x in keep:
        sets[labels[x]] = [
            {labels[y]: Fraction(num, den) for y, num, den in p}
            for p in pmfs[x]
            if support(p) <= set(keep)
        ]
        if not sets[labels[x]]:
            raise NotWellDefinedError(labels[x], sub_space.labels)
    return build(sub_space.labels, sets)


def restrict_to_nonabs(op: UpperOperator, partition: StatePartition) -> UpperOperator:
    """Restrict to the unabsorbed transient states, which is always well defined."""
    members = unabsorbed_transients(partition)
    if not members:
        raise PreconditionError("there are no unabsorbed transient states to restrict to")
    try:
        return restrict(op, members)
    except NotWellDefinedError as exc:
        raise AssertionError(
            f"restriction to the unabsorbed transient states failed: {exc}"
        ) from exc


def _same_family(p: UpperOperator, q: UpperOperator) -> bool:
    if p is q:
        return True
    fp = getattr(p, "pmfs", None)
    return fp is not None and p.space == q.space and fp == getattr(q, "pmfs", None)


def nested_restriction_check(op: UpperOperator, outer, inner) -> bool:
    """True when restricting in two cuts equals restricting once."""
    outer_set = frozenset(outer)
    inner_set = frozenset(inner)
    if not inner_set <= outer_set:
        raise PreconditionError("the inner class must be contained in the outer class")
    outer_keep = sorted(outer_set)
    direct = restrict(op, inner_set)
    first = restrict(op, outer_keep)
    local_inner = tuple(outer_keep.index(i) for i in sorted(inner_set))
    two_step = restrict(first, local_inner)
    return _same_family(direct, two_step)


# ---------------------------------------------------------------------------
# paper checks: cyclicity of one class, and Propositions 2 and 4 on single classes


def cyclicity(graph: AccessGraph, members) -> int | None:
    """Greatest common divisor of the lengths of closed paths inside the class.

    The cyclicity that :func:`communication_classes` gives the members'
    induced subgraph, which must be a single class.  Returns ``None`` for a
    class without internal closed paths (cyclicity undefined there).  Raises
    :class:`PreconditionError` when the members are empty, out of range or
    not strongly connected.
    """
    m = tuple(sorted(set(members)))
    if not m:
        raise PreconditionError("cyclicity of an empty class is undefined")
    if m[0] < 0 or m[-1] >= graph.n:
        raise PreconditionError(f"class members out of range: {m}")
    block = graph_from_adjacency(tuple(graph.labels[i] for i in m), graph.adjacency[np.ix_(m, m)])
    classes = communication_classes(block)
    if len(classes) != 1:
        raise PreconditionError("cyclicity requires a strongly connected class")
    return classes[0].cyclicity


def orbit_limit_on_regular_class(
    op: UpperOperator,
    members,
    f,
    params: OrbitParams | None = None,
    classes: tuple[ClassInfo, ...] | None = None,
) -> float:
    """Constant limit of the orbit of ``f`` restricted to a regular maximal class.

    The restricted orbit of a regular class converges to a constant that
    dominates the minimum of the start function, strictly so when the start is
    not constant on the class; violations raise
    :class:`AssertionError`, as does non-convergence within budget.
    Maximality and regularity are read from ``classes`` (computed once when not
    given), and the class is restricted through :func:`restrict`.
    """
    p = params or OrbitParams()
    target = frozenset(members)
    if classes is None:
        classes = communication_classes(build_graph(op.supports()))
    info = next((c for c in classes if c.members == target), None)
    name = "{" + ", ".join(labels_of(op.space, target)) + "}"
    if info is None or not info.is_maximal:
        raise PreconditionError(f"{name} is not a maximal communication class")
    if info.cyclicity != 1:
        raise PreconditionError(f"class {name} is not regular")
    keep = sorted(target)
    try:
        sub = restrict(op, keep)
    except NotWellDefinedError as exc:  # closedness guarantees non-empty sets
        raise AssertionError(
            f"restriction to a maximal class failed unexpectedly: {exc}"
        ) from exc
    g = np.asarray(f, dtype=float)
    if g.shape != (op.n,):
        raise PreconditionError(f"function has shape {g.shape}, expected ({op.n},)")
    start = g[keep]
    result = iterate_orbit(sub, start, p)
    if not result.converged:
        raise AssertionError(
            "orbit on a regular class failed to converge within budget"
        )
    limit = result.limit
    spread = float(limit.max() - limit.min())
    if spread > 10 * p.tolerance:
        raise AssertionError(
            f"limit on a regular class must be constant; spread {spread:g}"
        )
    phi = float(limit.mean())
    lowest = float(start.min())
    if phi < lowest - p.tolerance:
        raise AssertionError(
            f"limit {phi:g} fails to dominate the minimum {lowest:g}"
        )
    if float(start.max()) > lowest and not phi > lowest:
        raise AssertionError(
            "limit must strictly dominate the minimum of a non-constant start"
        )
    return phi


BASIS_SINGLE_CLASS = "Proposition 2"


@dataclass(frozen=True)
class LimitBoundCheck:
    """Numeric domination check for the limit of one sampled orbit."""

    function: tuple[float, ...]
    limit: float
    min_value: float
    dominates: bool
    strict: bool | None  # None when the start function is constant


@dataclass(frozen=True)
class SingleClassReport:
    """For single-class operators the three notions coincide with regularity."""

    members: tuple[str, ...]
    cyclicity: int | None
    regular: bool
    convergent: bool
    ergodic: bool
    basis: str
    limit_bound: LimitBoundCheck | None


def single_class_equivalence_report(
    op: UpperOperator, f=None, params: OrbitParams | None = None
) -> SingleClassReport:
    """Report on an operator whose accessibility graph is a single class.

    Convergence, ergodicity and regularity are equivalent here, so the report
    simply evaluates the cyclicity and mirrors it.  When the class is regular
    the limit-domination check runs on ``f`` (a non-constant ramp by default):
    the constant limit dominates the minimum of the start function, strictly
    when the start is not constant.
    """
    classes = communication_classes(build_graph(op.supports()))
    if len(classes) != 1:
        raise PreconditionError(
            f"expected a single communication class, found {len(classes)}"
        )
    info = classes[0]
    regular = info.cyclicity == 1
    limit_bound = None
    if regular:
        if f is None:
            f = np.arange(op.n, dtype=float) / max(1, op.n - 1)
        start = np.asarray(f, dtype=float)
        p = params or OrbitParams()
        phi = orbit_limit_on_regular_class(op, info.members, start, p, classes)
        lowest = float(start.min())
        constant = bool(float(start.max()) == lowest)
        limit_bound = LimitBoundCheck(
            function=tuple(float(v) for v in start),
            limit=phi,
            min_value=lowest,
            dominates=phi >= lowest - p.tolerance,
            strict=None if constant else bool(phi > lowest),
        )
    return SingleClassReport(
        members=labels_of(op.space, info.members),
        cyclicity=info.cyclicity,
        regular=regular,
        convergent=regular,
        ergodic=regular,
        basis=BASIS_SINGLE_CLASS,
        limit_bound=limit_bound,
    )


# ---------------------------------------------------------------------------
# the Fraction-per-mass loader: the reference for ``parse_model``

_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\Z")


def parse_rational(value, where: str = "value") -> Fraction:
    """Parse a rational string into a ``Fraction``; see ``imclim.modelio.parse_rational_pair``."""
    return Fraction(*parse_rational_pair(value, where))


def fraction_parse_rational(value, where: str = "value") -> Fraction:
    """``parse_rational`` with one ``Fraction`` per string, for every spelling."""
    if isinstance(value, bool) or not isinstance(value, str):
        raise ModelValidationError(
            f"{where}: expected a rational string, got {value!r}; {RATIONAL_HINT}"
        )
    text = value.strip()
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ModelValidationError(
                f"{where}: the decimal exponent of a rational may be at most "
                f"{MAX_DECIMAL_EXPONENT} in magnitude; {RATIONAL_HINT}"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelValidationError(
            f"{where}: cannot parse {value!r} as a rational; {RATIONAL_HINT}"
        ) from exc


def _fraction_pmf(n: int, mass: dict[int, Fraction]) -> tuple[tuple[int, Fraction], ...]:
    items = sorted(mass.items())
    bad = [i for i, _ in items if not 0 <= i < n]
    if bad:
        raise ModelValidationError(f"state indices {bad} out of range 0..{n - 1}")
    negative = [i for i, m in items if m < 0]
    if negative:
        raise ModelValidationError(f"negative mass at positions {negative}")
    total = sum(m for _, m in items)
    if total != 1:
        try:
            text = str(total)
        except ValueError:
            text = "a rational too long to print"
        raise ModelValidationError(f"masses sum to {text}, expected exactly 1")
    return tuple((i, m) for i, m in items if m)


def fraction_load(data) -> tuple[StateSpace, tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]]:
    """``parse_model`` with a ``Fraction`` per mass and no operator.

    Returns the state space and, per state, its distinct pmfs as ascending
    ``(index, mass)`` pairs in the order of the dense mass vectors; raises
    the same first error as ``parse_model``: every mass is parsed in document
    order before any structural check runs.
    """
    if not isinstance(data, Mapping):
        raise ModelValidationError("the model document must be a JSON object")
    states = data.get("states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ModelValidationError('"states" must be a list of state labels')
    raw_sets = data.get("credal_sets")
    if not isinstance(raw_sets, Mapping):
        raise ModelValidationError('"credal_sets" must be an object keyed by state label')
    credal_sets = {}
    for label, pmf_list in raw_sets.items():
        if not isinstance(pmf_list, list):
            raise ModelValidationError(
                f'credal set for state "{label}" must be a list of pmf objects'
            )
        parsed = []
        for k, entry in enumerate(pmf_list):
            if not isinstance(entry, Mapping):
                raise ModelValidationError(
                    f'pmf #{k} for state "{label}" must be an object mapping states to rationals'
                )
            parsed.append({
                target: fraction_parse_rational(mass, where=f'credal_sets["{label}"][{k}]["{target}"]')
                for target, mass in entry.items()
            })
        credal_sets[label] = parsed
    space = StateSpace(tuple(states))
    unknown = sorted(set(credal_sets) - set(space.labels))
    if unknown:
        raise ModelValidationError(f"credal sets given for unknown states: {unknown}")
    per_state = []
    for label in space.labels:
        raw = credal_sets.get(label)
        if raw is None:
            raise ModelValidationError(f"no credal set for state '{label}'")
        if not raw:
            raise ModelValidationError(f"empty credal set for state '{label}'")
        pmfs = []
        for k, entry in enumerate(raw):
            bad = sorted(set(entry) - set(space.labels))
            if bad:
                raise ModelValidationError(
                    f"pmf #{k} for state '{label}' assigns mass to unknown states {bad}"
                )
            try:
                pmfs.append(_fraction_pmf(len(space), {space.positions[y]: m for y, m in entry.items()}))
            except ModelValidationError as exc:
                raise ModelValidationError(f"pmf #{k} for state '{label}': {exc}") from exc
        # the dense vectors' order: mass at a lower index is the larger entry
        per_state.append(tuple(sorted(set(pmfs), key=lambda p: tuple((-i, m) for i, m in p))))
    return space, tuple(per_state)


def fraction_rows(n: int, per_state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row starts, float matrix and support rows of ``fraction_load``'s pmfs."""
    pmfs = [p for sets in per_state for p in sets]
    matrix = np.zeros((len(pmfs), n))
    supports = np.zeros((len(pmfs), n), dtype=bool)
    for k, p in enumerate(pmfs):
        for i, m in p:
            matrix[k, i] = float(m)
            supports[k, i] = True
    starts = np.cumsum([0] + [len(sets) for sets in per_state[:-1]])
    return starts, matrix, supports


# ---------------------------------------------------------------------------
# model serialisation, the inverse of ``parse_model``


def to_document(op: CredalOperator) -> dict:
    """The operator's model as a model document (round-trippable)."""
    labels = op.space.labels
    sets = {
        labels[x]: [{labels[y]: str(m) for y, m in masses(p)} for p in pmfs]
        for x, pmfs in enumerate(op.pmfs)
    }
    return {"states": list(labels), "credal_sets": sets}


def dump_model(op: CredalOperator, target: str | Path | IO[str]) -> None:
    payload = json.dumps(to_document(op), indent=2) + "\n"
    if hasattr(target, "write"):
        target.write(payload)
    else:
        Path(target).write_text(payload)


def reference_iterate_orbit(op: UpperOperator, f, params: OrbitParams | None = None) -> OrbitResult:
    """The scalar orbit engine the batched one replaced, kept as the reference.

    One function at a time: the window is a list of the last ``max_period + 1``
    iterates, stacked on every step to score every period.  On step
    ``W = burn_in - max_period + 1`` a period-1 residual outside tolerance
    certifies the operator's closed-form limit, if it declares one, before
    any other rule.
    """
    p = params or OrbitParams()
    current = np.asarray(f, dtype=float)
    first = max(1, p.burn_in - p.max_period + 1)  # W
    certified = None
    window: list[np.ndarray] = [current.copy()]
    streak = np.zeros(min(p.max_period, p.max_iters) + 1, dtype=np.int64)
    last_step_residual = float("inf")
    best_period: int | None = None
    best_residual = float("inf")
    iterations_run = 0
    reason = "budget"

    for iteration in range(1, p.max_iters + 1):
        iterations_run = iteration
        nxt = op.apply(window[-1])
        window.append(nxt)
        if len(window) > p.max_period + 1:
            window.pop(0)

        history = np.stack(window[:-1])  # oldest..newest
        residuals = np.max(np.abs(history - nxt), axis=1)
        periods = np.arange(len(residuals), 0, -1)  # residuals[j] belongs to period L-1-j
        within = residuals <= p.tolerance
        streak[periods] = np.where(within, streak[periods] + 1, 0)
        last_step_residual = float(residuals[-1])

        if iteration == first and not residuals[-1] <= p.tolerance:
            certified = op.closed_form_limit(current[:, None])
            if certified is not None:
                best_period, best_residual, reason = 1, last_step_residual, "certified"
                certified = np.array(certified[:, 0])
                certified.setflags(write=False)
                break

        exact_repeat = bool((residuals == 0.0).any())
        sustained = iteration >= p.burn_in and bool(
            (streak[periods] >= p.max_period).any()
        )
        if exact_repeat or sustained:
            eligible = periods[within]
            candidate = int(eligible.min())
            if best_period is None or candidate < best_period:
                best_period = candidate
                pos = int(np.flatnonzero(periods == candidate)[0])
                best_residual = float(residuals[pos])
            if best_period == 1 or exact_repeat:
                reason = "exact_repeat" if exact_repeat else "sustained"
                break

    found = best_period is not None
    return OrbitResult(
        detected_period=best_period,
        residual=best_residual if found else last_step_residual,
        iterations=iterations_run,
        stop_reason=reason,
        iterates_kept=tuple(v.copy() for v in window),
        params=p,
        certified_limit=certified,
    )


@np.errstate(over="ignore", invalid="ignore")  # inf - inf residuals are nan, silently
def all_slots_iterate_orbits(
    op: UpperOperator, starts: np.ndarray, params: OrbitParams | None = None
) -> tuple[OrbitResult, ...]:
    """The block engine that scored every step, kept as the block-level reference.

    Every step takes the residuals against all ring slots for every running
    column, and every streak runs from the first step a period is scored.
    On step ``W = burn_in - max_period + 1`` each column whose period-1
    residual is outside tolerance ends with the operator's closed-form
    limit, if it declares one, whatever the other rules say.  The whole
    ``(n, m)`` block is one block: callers keep it narrower than the
    engine's memory bound, so both iterate the same blocks and round alike.
    """
    p = params or OrbitParams()
    block = np.asarray(starts, dtype=float)
    n, m = block.shape
    first = max(1, p.burn_in - p.max_period + 1)  # W
    cap = min(p.max_period, p.max_iters)
    size = cap + 1
    ring = np.empty((m, n, size))
    ring[:, :, 0] = block.T
    gaps = np.empty_like(ring)
    current = np.array(block)
    back = np.arange(2 * size - 1, -1, -1) % size
    streak = np.zeros((m, cap), dtype=np.int64)
    best = np.zeros(m, dtype=np.int64)
    best_residual = np.zeros(m)
    column = np.arange(m)
    results: list[OrbitResult | None] = [None] * m

    for iteration in range(1, p.max_iters + 1):
        slot = iteration % size
        current = op.apply(current)
        running = len(column)
        ring[:running, :, slot] = current.T

        scored = min(iteration, cap)
        filled = scored + 1
        diff = np.subtract(ring[:running, :, :filled], current.T[:, :, None],
                           out=gaps[:running, :, :filled])
        by_slot = np.abs(diff, out=diff).max(axis=1)
        residuals = by_slot[:, back[size - slot:size - slot + scored]]
        within = residuals <= p.tolerance
        scoring = streak[:, :scored]
        scoring += 1
        scoring *= within

        certify = np.zeros(running, dtype=bool)
        limits = {}
        if iteration == first:
            outside = ~(residuals[:, 0] <= p.tolerance)
            found = op.closed_form_limit(block[:, column[outside]]) if outside.any() else None
            if found is not None:
                certify = outside
                limits = dict(zip(outside.nonzero()[0].tolist(), found.T))

        done = exact = np.zeros(running, dtype=bool)
        if within.any():
            exact = (residuals == 0.0).any(axis=1)
            fired = exact
            if iteration >= p.burn_in:
                fired = exact | (scoring >= p.max_period).any(axis=1)
            if fired.any():
                candidate = within.argmax(axis=1) + 1
                better = (fired & ((best == 0) | (candidate < best))).nonzero()[0]
                best[better] = candidate[better]
                best_residual[better] = residuals[better, candidate[better] - 1]
                done = fired & ((best == 1) | exact)
        done = done | certify
        if iteration == p.max_iters:
            done = np.ones_like(done)
        elif not done.any():
            continue

        order = back[size - slot - 1:size - slot + scored][::-1]
        for k in done.nonzero()[0]:
            kept = ring[k][:, order].T.copy()
            kept.setflags(write=False)
            period = int(best[k]) or None
            limit = None
            if certify[k]:
                period, reason = 1, "certified"
                limit = np.array(limits[k])
                limit.setflags(write=False)
            elif exact[k]:
                reason = "exact_repeat"
            elif period == 1:
                reason = "sustained"
            else:
                reason = "budget"
            results[column[k]] = OrbitResult(
                detected_period=period,
                residual=float(residuals[k, 0] if certify[k] or not period else best_residual[k]),
                iterations=iteration,
                stop_reason=reason,
                iterates_kept=tuple(kept),
                params=p,
                certified_limit=limit,
            )
        keep = (~done).nonzero()[0]
        if not len(keep):
            break
        moved = np.arange(len(keep))
        holes = done[:len(keep)].nonzero()[0]
        moved[holes] = keep[len(keep) - len(holes):]
        for hole, source in zip(holes, moved[holes]):
            ring[hole] = ring[source]
        current = current[:, moved]
        streak, best, best_residual = streak[moved], best[moved], best_residual[moved]
        column = column[moved]
    return tuple(results)


def orbit_result_bits(result: OrbitResult) -> tuple:
    """Every field of an ``OrbitResult``, with floats and vectors as their bytes."""

    def bits(vectors):
        return None if vectors is None else tuple(v.tobytes() for v in vectors)

    return (
        result.detected_period,
        result.converged,
        bits(result.limit_cycle),
        np.float64(result.residual).tobytes(),
        result.iterations,
        result.stop_reason,
        bits(result.iterates_kept),
        result.params,
        bits(None if result.certified_limit is None else (result.certified_limit,)),
    )


ROTATION_SPACE = StateSpace(("x", "y"))


class ScaledRotation(UpperOperator):
    """The plane turned by ``2*pi/k`` and scaled by ``rho``: an operator whose residuals can grow.

    It is no upper transition operator.  For ``rho > 1`` it expands, and its
    sup-norm step ``max|T^t f - T^(t-1) f|`` rises and falls as the orbit
    turns, so a residual within tolerance on one step can leave it on a later
    one: the case on which the orbit engine reruns a block.
    """

    def __init__(self, rho: float, k: int):
        angle = 2 * math.pi / k
        self.rho = rho
        self._matrix = rho * np.array([[math.cos(angle), -math.sin(angle)],
                                       [math.sin(angle), math.cos(angle)]])

    @property
    def space(self) -> StateSpace:
        return ROTATION_SPACE

    def apply(self, f):
        return self._matrix @ self._check_vector(f)


def rotation_starts(op: ScaledRotation, params: OrbitParams, count: int) -> np.ndarray:
    """``count`` starts at spread angles, scaled so each one's step reaches the
    tolerance near its own step between ``W = burn_in - max_period + 1`` and the burn-in.

    A step moves a vector of length 1 by about ``|rho * R - I|`` and the
    orbit grows by ``rho`` a step, so a start of length ``s`` has a step of
    about ``s * |rho * R - I| * rho**(t - 1)`` on step ``t``.
    """
    first = max(1, params.burn_in - params.max_period + 1)
    steps = np.linspace(first, max(first, params.burn_in), count)
    angles = np.arange(count) * 2.399963229728653  # the golden angle
    move = np.linalg.norm(op._matrix - np.eye(2), 2)
    return np.stack([np.cos(angles), np.sin(angles)]) * (
        params.tolerance / (move * op.rho ** (steps - 1)))


class DoublingIntoSwap(UpperOperator):
    """One state: doubles every value below ``1e-3``, then falls into the swap of 10 and 20.

    It is no upper transition operator.  A start of ``tolerance * 2**-(W + 1)``
    steps by ``tolerance / 4`` on step ``W`` and past the tolerance on step
    ``W + 3``; about 20 steps later it repeats exactly at period 2, with a
    step of 10: a quiet column that leaves tolerance after ``W`` and repeats
    before ``W + max_period - 1``.
    """

    SPACE = StateSpace(("x",))

    @property
    def space(self) -> StateSpace:
        return self.SPACE

    def apply(self, f):
        g = self._check_vector(f)
        return np.where(g == 10.0, 20.0, np.where(g >= 1e-3, 10.0, 2 * g))


class ScriptedOrbit(UpperOperator):
    """One state that moves by the given steps: from ``0.0`` on, each value
    maps to itself plus the next step, and the last value to itself.

    It is no upper transition operator.  A script of unit steps up to ``W``,
    two steps of ``tolerance / 1000``, one unit step and then tiny steps
    again is a loud column whose periods come within tolerance, all leave
    it on one step, and period 1 then stays within it: the stale streaks of
    the first tiny steps would fire the sustained rule too early.
    """

    SPACE = StateSpace(("x",))

    def __init__(self, steps):
        values = [0.0]
        for step in steps:
            values.append(values[-1] + step)
        assert len(set(values)) == len(values), "a scripted orbit repeats no value"
        self.values = values
        self._next = dict(zip(values, values[1:] + values[-1:]))

    @property
    def space(self) -> StateSpace:
        return self.SPACE

    def apply(self, f):
        g = self._check_vector(f)
        return np.vectorize(self._next.__getitem__, otypes=[float])(g)


class UncertifiedCounterexample(CounterexampleOperator):
    """The builtin counterexample without its closed-form limit.

    Its orbits take their O(1/n) approach to the budget: the orbit engine's
    long loud path, which the builtin itself ends on step ``W``.
    """

    def closed_form_limit(self, block):
        return None


def reference_credal_apply(op: CredalOperator, f) -> np.ndarray:
    """``CredalOperator.apply`` before the gather-max: each state's maximum by ``np.maximum.reduceat``."""
    return np.maximum.reduceat(op._matrix @ np.asarray(f, dtype=float), dense_table(op.supports()).starts)


def with_vanishing_masses(rng: random.Random, op: CredalOperator) -> CredalOperator:
    """``op`` with, in about half its pmfs, a mass of ``10**-400`` moved to a random state.

    Such a mass is positive, so it is an edge, yet its float entry is ``0.0``.
    """
    labels = op.space.labels
    tiny = Fraction(1, 10**400)
    sets: dict[str, list[dict]] = {}
    for x, pmfs in enumerate(op.pmfs):
        sets[labels[x]] = []
        for p in pmfs:
            mass = {labels[i]: m for i, m in masses(p)}
            if rng.random() < 0.5:
                source, target = rng.choice(list(mass)), rng.choice(labels)
                mass[source] -= tiny
                mass[target] = mass.get(target, 0) + tiny
            sets[labels[x]].append(mass)
    return build(labels, sets)


def reference_counterexample_apply(f) -> np.ndarray:
    """The counterexample operator on one function, in scalar Python floats."""
    fa, fb, fc = (float(v) for v in f)
    a2, a1 = fa - fc, fb - fc
    curve = fc
    half_val = a2 * 0.5 * 0.5 + a1 * 0.5 + fc
    if half_val > curve:
        curve = half_val
    if a2 < 0:
        vertex = -a1 / (2 * a2)
        if 0 < vertex < 0.5:
            v_val = a2 * vertex * vertex + a1 * vertex + fc
            if v_val > curve:
                curve = v_val
    return np.array([fa, max(fa, curve), max(fa, fb)])


def float_cycle_witness(
    op: UpperOperator,
    members,
    params: OrbitParams | None = None,
    extra_random: int = 6,
    seed: int = 0,
) -> OrbitCheck | None:
    """The float witness search that the structural certificate replaced, kept as a reference.

    Tries the indicators of the class states, then random 0/1 vectors
    supported on the class, one orbit at a time, and returns the first
    sampled orbit with period >= 2 touching ``members``, or ``None``.
    """
    member_list = sorted(set(members))
    rng = np.random.default_rng(seed)
    candidates: list[tuple[str, np.ndarray]] = []
    for i in member_list:
        vec = np.zeros(op.n)
        vec[i] = 1.0
        candidates.append((f"indicator:{op.space.labels[i]}", vec))
    for k in range(extra_random):
        vec = np.zeros(op.n)
        vec[member_list] = rng.integers(0, 2, len(member_list)).astype(float)
        candidates.append((f"random01:{k}", vec))
    for label, vec in candidates:
        result = iterate_orbit(op, vec, params)
        if result.detected_period is not None and result.detected_period >= 2:
            return OrbitCheck(label=label, period=result.detected_period)
    return None
