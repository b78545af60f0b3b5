"""Seeded random instance generators, brute-force oracles and test-only helpers shared by the tests."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from imclim import (
    AccessGraph,
    CredalFamily,
    CredalOperator,
    InternalInvariantError,
    NotWellDefinedError,
    Pmf,
    PreconditionError,
    StatePartition,
    StateSpace,
    UpperOperator,
    build_graph,
    communication_classes,
    lower_reach_set,
)

LABELS = "abcdefgh"


def random_pmf(rng: random.Random, n: int, max_den: int = 8) -> Pmf:
    """Random pmf with denominator at most ``max_den`` and a random support."""
    support = sorted(rng.sample(range(n), rng.randint(1, n)))
    q = rng.randint(1, max_den)
    cuts = sorted(rng.randint(0, q) for _ in range(len(support) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    return Pmf(n, {idx: Fraction(part, q) for idx, part in zip(support, parts)})


def dense(p: Pmf) -> tuple[Fraction, ...]:
    """The pmf's masses as a length-``n`` tuple, zero off the support."""
    mass = dict(p.mass)
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
        classes = communication_classes(build_graph(op))
        if len(classes) == 1:
            return op


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
# brute-force oracles


def lower_direct(op: CredalOperator, f) -> tuple[Fraction, ...]:
    """Lower operator by direct per-state minimum expectation (independent of conjugacy)."""
    vals = tuple(Fraction(x) for x in f)
    return tuple(
        min(p.expectation(vals) for p in sets) for sets in op.family.per_state
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
            vec = tuple(selection[x].expectation(vec) for x in range(n))
        best = list(vec) if best is None else [max(a, b) for a, b in zip(best, vec)]
    return tuple(best)


def brute_force_lower_reach(op, targets: frozenset[int]) -> dict[int, frozenset[int]]:
    """Exact sets {x : lower n-step probability of targets at x > 0} for n = 0..|X|."""
    indicator = tuple(Fraction(int(i in targets)) for i in range(op.n))
    out = {0: frozenset(targets)}
    g = indicator
    for step in range(1, op.n + 1):
        g = op.apply_lower_exact(g)
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
    leak = op.upper_indicator(outside)
    return all(leak[x] == 0 for x in inside)


def closed_subsets(op) -> list[frozenset[int]]:
    """All non-empty closed subsets by exhaustive enumeration (small spaces only).

    Reads the edges once from exact indicator evaluation (the base-class
    hook): a subset is closed when no edge leaves it.
    """
    n = op.n
    adjacency = UpperOperator.adjacency(op)
    found = []
    for bits in range(1, 2**n):
        inside = [i for i in range(n) if bits >> i & 1]
        outside = [i for i in range(n) if not bits >> i & 1]
        if not adjacency[np.ix_(inside, outside)].any():
            found.append(frozenset(inside))
    return found


def is_absorbing(op: UpperOperator, targets) -> bool:
    """True when the closed class ``targets`` is lower reachable from every state."""
    reach, _ = lower_reach_set(op, targets)
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
# restriction helpers


def restrict_to_nonabs(op: UpperOperator, partition: StatePartition) -> UpperOperator:
    """Restrict to the unabsorbed transient states, which is always well defined."""
    members = partition.unabsorbed_transients
    if not members:
        raise PreconditionError("there are no unabsorbed transient states to restrict to")
    try:
        return op.restrict(sorted(members))
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
    direct = op.restrict(sorted(inner_set))
    first = op.restrict(outer_keep)
    local_inner = tuple(outer_keep.index(i) for i in sorted(inner_set))
    two_step = first.restrict(local_inner)
    return _same_family(direct, two_step)
