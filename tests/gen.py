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
    CredalFamily,
    CredalOperator,
    Decomposition,
    DimensionMismatchError,
    InternalInvariantError,
    ModelValidationError,
    NotWellDefinedError,
    OrbitCheck,
    OrbitParams,
    OrbitResult,
    Pmf,
    PreconditionError,
    StatePartition,
    StateSpace,
    UpperOperator,
    build_graph,
    communication_classes,
    iterate_orbit,
    lower_reach_set,
    validate_family,
)
from imclim.modelio import MAX_DECIMAL_EXPONENT, RATIONAL_HINT

LABELS = "abcdefgh"


def random_pmf(rng: random.Random, n: int, max_den: int = 8) -> Pmf:
    """Random pmf with denominator at most ``max_den`` and a random support."""
    support = sorted(rng.sample(range(n), rng.randint(1, n)))
    q = rng.randint(1, max_den)
    cuts = sorted(rng.randint(0, q) for _ in range(len(support) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    return Pmf(n, {idx: Fraction(part, q) for idx, part in zip(support, parts)})


def masses(p: Pmf) -> tuple[tuple[int, Fraction], ...]:
    """The pmf's ascending ``(index, mass)`` pairs, each mass a ``Fraction``."""
    return tuple((i, Fraction(num, den)) for i, num, den in p.mass)


def support(p: Pmf) -> frozenset[int]:
    return frozenset(i for i, _, _ in p.mass)


def identity_operator(labels) -> CredalOperator:
    """Operator whose only candidate at each state is the point mass on itself."""
    space = StateSpace(tuple(labels))
    n = len(space)
    return CredalOperator(CredalFamily(space, tuple((Pmf(n, {i: 1}),) for i in range(n))))


def partition_pieces(dec: Decomposition) -> tuple[frozenset[int], ...]:
    """All level maximal classes and absorbed sets, in the model's indices; together
    they partition the space."""
    pieces = []
    for level in dec.levels:
        part = level.partition
        for piece in (*part.maximal_classes, part.absorbed_transients):
            if piece:
                pieces.append(frozenset(level.states[i] for i in piece))
    return tuple(pieces)


def dense(p: Pmf) -> tuple[Fraction, ...]:
    """The pmf's masses as a length-``n`` tuple, zero off the support."""
    mass = dict(masses(p))
    return tuple(mass.get(i, Fraction(0)) for i in range(p.n))


def random_family(
    rng: random.Random, n: int | None = None, max_pmfs: int = 3, max_den: int = 8
) -> CredalFamily:
    if n is None:
        n = rng.randint(2, 5)
    space = StateSpace(tuple(LABELS[:n]))
    per = tuple(
        tuple(random_pmf(rng, n, max_den) for _ in range(rng.randint(1, max_pmfs)))
        for _ in range(n)
    )
    return CredalFamily(space, per)


def random_operator(rng, n=None, max_pmfs=3, max_den=8) -> CredalOperator:
    return CredalOperator(random_family(rng, n, max_pmfs, max_den))


def random_wide_operator(rng: random.Random, n: int, max_pmfs: int = 3) -> CredalOperator:
    """Operator over ``n`` states with up to ``max_pmfs`` sparse candidates per state.

    Supports have at most four states, so wide operators keep non-trivial
    structure: several classes, transients and cycles.
    """
    space = StateSpace(tuple(f"s{i}" for i in range(n)))
    per = []
    for _ in range(n):
        pmfs = []
        for _ in range(rng.randint(1, max_pmfs)):
            targets = rng.sample(range(n), rng.randint(1, min(n, 4)))
            weights = [rng.randint(1, 6) for _ in targets]
            total = sum(weights)
            pmfs.append(Pmf(n, {y: Fraction(w, total) for y, w in zip(targets, weights)}))
        per.append(tuple(pmfs))
    return CredalOperator(CredalFamily(space, tuple(per)))


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
    space = StateSpace(tuple(LABELS[:n]))
    per = []
    for b, block in enumerate(partition):
        target = partition[(b + 1) % blocks]
        for _ in block:
            pmfs = []
            for _ in range(rng.randint(1, 2)):
                # spread a random unit mass across the whole target block so
                # the block-to-block structure is strongly connected
                q = rng.randint(len(target), 8)
                cuts = sorted(rng.randint(1, q - 1) for _ in range(len(target) - 1))
                parts = [b2 - a2 for a2, b2 in zip([0] + cuts, cuts + [q])]
                if all(part > 0 for part in parts):
                    mass = {idx: Fraction(part, q) for idx, part in zip(target, parts)}
                    pmfs.append(Pmf(n, mass))
            if not pmfs:
                pmfs.append(Pmf(n, {idx: Fraction(1, len(target)) for idx in target}))
            per.append(tuple(pmfs))
    return CredalOperator(CredalFamily(space, tuple(per))), partition


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
    op = CredalOperator(validate_family(
        [label[x] for x in names],
        {label[x]: [{label[y]: m for y, m in p.items()} for p in ps] for x, ps in pmfs.items()},
    ))
    index = {x: i for i, x in enumerate(names)}
    cyclic = [tuple(sorted(index[x] for x in phase)) for phase in phases]
    first = min(range(d), key=lambda j: cyclic[j][0])
    return op, level, tuple(cyclic[first:] + cyclic[:first])


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
        return AccessGraph(tuple(f"s{i}" for i in range(n)), adjacency)
    n = rng.randint(1, max_nodes)
    p = rng.choice([0.15, 0.3, 0.5])
    adjacency = np.array([[rng.random() < p for _ in range(n)] for _ in range(n)])
    graph = AccessGraph(tuple(f"s{i}" for i in range(n)), adjacency)
    classes = communication_classes(graph)
    members = sorted(rng.choice(classes).members)
    block = adjacency[np.ix_(members, members)]
    return AccessGraph(tuple(f"s{i}" for i in members), block)


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
    return AccessGraph(tuple(f"s{i}" for i in range(n)), adjacency)


# ---------------------------------------------------------------------------
# exact evaluation: the reference for ``apply`` and the support tables


def expectation(p: Pmf, values) -> Fraction:
    """Expected value of ``values`` under ``p``; exact when the values are rational."""
    if len(values) != p.n:
        raise DimensionMismatchError(
            f"function has length {len(values)}, pmf has length {p.n}"
        )
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
    return tuple(max(expectation(p, vals) for p in sets) for sets in op.family.per_state)


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
# brute-force oracles


def lower_direct(op: CredalOperator, f) -> tuple[Fraction, ...]:
    """Lower operator by direct per-state minimum expectation (independent of conjugacy)."""
    vals = tuple(Fraction(x) for x in f)
    return tuple(
        min(expectation(p, vals) for p in sets) for sets in op.family.per_state
    )


def brute_force_power(op: CredalOperator, f, steps: int) -> tuple[Fraction, ...]:
    """n-step upper operator by enumerating every per-step pmf selection.

    The iterated maximum decouples per state, so the n-step value equals the
    pointwise maximum of ``M_1 (M_2 (... (M_k f)))`` over all sequences of
    selection matrices, one candidate pmf per state per step.
    """
    family = op.family
    n = len(family.space)
    vals = tuple(Fraction(x) for x in f)
    selections = list(itertools.product(*family.per_state))
    best: list[Fraction] | None = None
    for sequence in itertools.product(selections, repeat=steps):
        vec = vals
        for selection in reversed(sequence):
            vec = tuple(expectation(selection[x], vec) for x in range(n))
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
    block = graph.adjacency[np.ix_(m, m)].astype(np.int64)
    power = np.eye(len(m), dtype=np.int64)
    g = 0
    for k in range(1, len(m) + 1):
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
        a, b, c = (Pmf(3, {i: 1}) for i in range(3))
        family = CredalFamily(op.space, ((a,), (a, c), (a, b)))
    else:
        family = op.family
    if not keep:
        raise ModelValidationError("cannot restrict to an empty class")
    if keep[0] < 0 or keep[-1] >= op.n:
        raise ModelValidationError(f"restriction indices out of range: {keep}")
    sub_space = op.space.subset(keep)
    local = {x: i for i, x in enumerate(keep)}
    per = []
    for x in keep:
        kept = tuple(
            Pmf(len(keep), {local[y]: (num, den) for y, num, den in p.mass})
            for p in family.per_state[x]
            if all(y in local for y, _, _ in p.mass)
        )
        if not kept:
            raise NotWellDefinedError(op.space.labels[x], sub_space.labels)
        per.append(kept)
    return CredalOperator(CredalFamily(sub_space, tuple(per)))


def restrict_to_nonabs(op: UpperOperator, partition: StatePartition) -> UpperOperator:
    """Restrict to the unabsorbed transient states, which is always well defined."""
    members = partition.unabsorbed_transients
    if not members:
        raise PreconditionError("there are no unabsorbed transient states to restrict to")
    try:
        return restrict(op, members)
    except NotWellDefinedError as exc:
        raise InternalInvariantError(
            f"restriction to the unabsorbed transient states failed: {exc}"
        ) from exc


def _same_family(p: UpperOperator, q: UpperOperator) -> bool:
    if p is q:
        return True
    fp = getattr(p, "family", None)
    fq = getattr(q, "family", None)
    return fp is not None and fp == fq


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
    block = AccessGraph(tuple(graph.labels[i] for i in m), graph.adjacency[np.ix_(m, m)])
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
    :class:`InternalInvariantError`, as does non-convergence within budget.
    Maximality and regularity are read from ``classes`` (computed once when not
    given), and the class is restricted through :func:`restrict`.
    """
    p = params or OrbitParams()
    target = frozenset(members)
    if classes is None:
        classes = communication_classes(build_graph(op.supports()))
    info = next((c for c in classes if c.members == target), None)
    name = "{" + ", ".join(op.space.labels_of(target)) + "}"
    if info is None or not info.is_maximal:
        raise PreconditionError(f"{name} is not a maximal communication class")
    if info.cyclicity != 1:
        raise PreconditionError(f"class {name} is not regular")
    keep = sorted(target)
    try:
        sub = restrict(op, keep)
    except NotWellDefinedError as exc:  # closedness guarantees non-empty sets
        raise InternalInvariantError(
            f"restriction to a maximal class failed unexpectedly: {exc}"
        ) from exc
    g = np.asarray(f, dtype=float)
    if g.shape != (op.n,):
        raise PreconditionError(f"function has shape {g.shape}, expected ({op.n},)")
    start = g[keep]
    result = iterate_orbit(sub, start, p)
    if not result.converged:
        raise InternalInvariantError(
            "orbit on a regular class failed to converge within budget"
        )
    limit = result.limit
    spread = float(limit.max() - limit.min())
    if spread > 10 * p.tolerance:
        raise InternalInvariantError(
            f"limit on a regular class must be constant; spread {spread:g}"
        )
    phi = float(limit.mean())
    lowest = float(start.min())
    if phi < lowest - p.tolerance:
        raise InternalInvariantError(
            f"limit {phi:g} fails to dominate the minimum {lowest:g}"
        )
    if float(start.max()) > lowest and not phi > lowest:
        raise InternalInvariantError(
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
        members=op.space.labels_of(info.members),
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
                pmfs.append(_fraction_pmf(len(space), {space.index(y): m for y, m in entry.items()}))
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


def family_to_jsonable(family: CredalFamily) -> dict:
    """Serialize a family back into the model-file structure (round-trippable)."""
    sets: dict[str, list[dict[str, str]]] = {}
    for x, label in enumerate(family.space.labels):
        sets[label] = [
            {family.space.labels[y]: str(mass) for y, mass in masses(p)}
            for p in family.per_state[x]
        ]
    return {"states": list(family.space.labels), "credal_sets": sets}


def dump_model(family: CredalFamily, target: str | Path | IO[str]) -> None:
    payload = json.dumps(family_to_jsonable(family), indent=2) + "\n"
    if hasattr(target, "write"):
        target.write(payload)
    else:
        Path(target).write_text(payload)


def reference_iterate_orbit(op: UpperOperator, f, params: OrbitParams | None = None) -> OrbitResult:
    """The scalar orbit engine the batched one replaced, kept as the reference.

    One function at a time: the window is a list of the last ``max_period + 1``
    iterates, stacked on every step to score every period.
    """
    p = params or OrbitParams()
    current = np.asarray(f, dtype=float)
    window: list[np.ndarray] = [current.copy()]
    trace: list[np.ndarray] | None = [current.copy()] if p.keep_trace else None
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
        if trace is not None:
            trace.append(nxt.copy())

        history = np.stack(window[:-1])  # oldest..newest
        residuals = np.max(np.abs(history - nxt), axis=1)
        periods = np.arange(len(residuals), 0, -1)  # residuals[j] belongs to period L-1-j
        within = residuals <= p.tolerance
        streak[periods] = np.where(within, streak[periods] + 1, 0)
        last_step_residual = float(residuals[-1])

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
        converged=best_period == 1,
        limit_cycle=tuple(v.copy() for v in window[-best_period:]) if found else None,
        residual=best_residual if found else last_step_residual,
        iterations=iterations_run,
        stop_reason=reason,
        iterates_kept=tuple(v.copy() for v in window),
        params=p,
        trace=tuple(trace) if trace is not None else None,
    )


@np.errstate(over="ignore", invalid="ignore")  # inf - inf residuals are nan, silently
def all_slots_iterate_orbits(
    op: UpperOperator, starts: np.ndarray, params: OrbitParams | None = None
) -> tuple[OrbitResult, ...]:
    """The block engine that scored every step, kept as the block-level reference.

    Every step takes the residuals against all ring slots for every running
    column, and every streak runs from the first step a period is scored.
    The whole ``(n, m)`` block is one block: callers keep it narrower than
    the engine's memory bound, so both iterate the same blocks and round
    alike.
    """
    p = params or OrbitParams()
    block = np.asarray(starts, dtype=float)
    n, m = block.shape
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
    traces = [[v.copy()] for v in block.T] if p.keep_trace else None
    results: list[OrbitResult | None] = [None] * m

    for iteration in range(1, p.max_iters + 1):
        slot = iteration % size
        current = op.apply(current)
        running = len(column)
        ring[:running, :, slot] = current.T
        if traces is not None:
            for k, c in enumerate(column):
                traces[c].append(current[:, k].copy())

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
        if iteration == p.max_iters:
            done = np.ones_like(done)
        elif not done.any():
            continue

        order = back[size - slot - 1:size - slot + scored][::-1]
        for k in done.nonzero()[0]:
            kept = ring[k][:, order].T.copy()
            kept.setflags(write=False)
            period = int(best[k]) or None
            if exact[k]:
                reason = "exact_repeat"
            elif period == 1:
                reason = "sustained"
            else:
                reason = "budget"
            results[column[k]] = OrbitResult(
                detected_period=period,
                converged=period == 1,
                limit_cycle=tuple(kept[-period:]) if period else None,
                residual=float(best_residual[k] if period else residuals[k, 0]),
                iterations=iteration,
                stop_reason=reason,
                iterates_kept=tuple(kept),
                params=p,
                trace=tuple(traces[column[k]]) if traces is not None else None,
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
        bits(result.trace),
    )


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
            return OrbitCheck(label=label, period=result.detected_period, converged=False)
    return None
