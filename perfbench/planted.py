"""Seeded models whose analysis results are known by construction.

Each model is a stack of levels.  A level is a strongly connected *core* plus
a few *transient* states:

* The core is a ring with extra random support.  It is aperiodic through one
  guaranteed self-loop, or bipartite with one guaranteed 2-cycle, which makes
  its cyclicity exactly 2.
* Every core below the first gets one extra pmf, at one state, that leaks only
  into the core of the level above it (``level k -> level k-1``).
* Every pmf of a transient state meets its own level's core and stays inside
  its own level.

Convergence, ergodicity and the decomposition are properties of the
accessibility relation alone (Hermans & de Cooman, IJAR 2012), so the
planted structure fixes every answer the analyzer must give: depth, the
maximal class and absorbed set of each level, the level-1 partition, each
core's cyclicity, the graph's edge set, the verdicts and the exit code.  The
reference is this generator, never output captured from the code under test.

The same seed always yields byte-identical model files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

SUPPORT = 4  # most states in the support of one pmf
PMFS = 3  # default upper bound on the pmfs per state

BUILTIN = "builtin:counterexample-5.1"


@dataclass(frozen=True)
class Level:
    core: tuple[str, ...]
    transients: tuple[str, ...]
    cyclicity: int  # of the core within its own level
    top_cyclicity: int | None = None  # of the core in the full graph, if different

    @property
    def states(self) -> tuple[str, ...]:
        return self.core + self.transients


@dataclass(frozen=True)
class Planted:
    """A model with its known answer; ``source`` is what ``analyze`` receives."""

    name: str
    source: str
    flags: tuple[str, ...]
    levels: tuple[Level, ...]
    edges: tuple[tuple[str, str], ...]
    finitely_generated: bool = True
    suite: int | None = None

    @property
    def states(self) -> tuple[str, ...]:
        return tuple(s for level in self.levels for s in level.states)


@dataclass(frozen=True)
class Answer:
    convergent: str
    exit_code: int
    ergodic: str
    convergent_on_maximal_states: bool
    basis: str
    witness: tuple[int, tuple[str, ...], int] | None  # level, members, cyclicity


def answer(model: Planted) -> Answer:
    """Verdicts implied by the planted levels (the paper's Theorems 1 and 2)."""
    offender = next(
        (
            (k, tuple(sorted(level.core)), level.cyclicity)
            for k, level in enumerate(model.levels, start=1)
            if level.cyclicity != 1
        ),
        None,
    )
    if offender is None:
        convergent, basis = "yes", "Theorem 1"
    elif model.finitely_generated:
        convergent, basis = "no", "Theorem 2"
    else:
        convergent, basis = "inconclusive", "Theorem 1 condition not met"
    top = model.levels[0]
    return Answer(
        convergent=convergent,
        exit_code={"yes": 0, "no": 2, "inconclusive": 3}[convergent],
        ergodic="yes" if len(model.levels) == 1 and top.cyclicity == 1 else "no",
        convergent_on_maximal_states=top.cyclicity == 1,
        basis=basis,
        witness=offender,
    )


def _pmf(rng: random.Random, must: list[str], pool: list[str], size: int) -> dict[str, str]:
    """Pmf on at most ``size`` states: ``must`` plus random extras from ``pool``."""
    support = list(dict.fromkeys(must))
    extras = [s for s in pool if s not in support]
    room = min(size - len(support), len(extras))
    support += rng.sample(extras, rng.randint(0, room))
    weights = [rng.randint(1, 4) for _ in support]
    total = sum(weights)
    return {s: str(Fraction(w, total)) for s, w in zip(support, weights)}


def _core_pmfs(
    rng: random.Random,
    core: list[str],
    cyclicity: int,
    leak_pool: list[str] | None,
    size: int,
    pmfs: int,
) -> dict[str, list[dict[str, str]]]:
    c = len(core)
    leaker = rng.randrange(c) if leak_pool else None
    sets = {}
    for i, label in enumerate(core):
        if cyclicity == 1:
            pool = core
        else:
            pool = [core[j] for j in range(c) if (j - i) % 2]
        must = [core[(i + 1) % c]]
        if cyclicity == 1 and i == 0:
            must.append(label)  # the self-loop that makes the core aperiodic
        if cyclicity == 2 and i == 1:
            must.append(core[0])  # the 2-cycle that pins the cyclicity at 2
        internal = rng.randint(1, pmfs - (i == leaker))
        dists = [_pmf(rng, must, pool, size)]
        dists += [_pmf(rng, [rng.choice(pool)], pool, size) for _ in range(internal - 1)]
        if i == leaker:
            dists.append(_pmf(rng, [rng.choice(leak_pool)], leak_pool, size))
        sets[label] = dists
    return sets


def make_model(
    rng: random.Random,
    name: str,
    shape: list[tuple[int, int, int]],
    suite: int | None = None,
    pmfs: int = PMFS,
) -> tuple[Planted, dict]:
    """Planted model from ``(core size, transients, cyclicity)`` per level.

    Each state has 1 to ``pmfs`` pmfs, whose supports have at most
    ``SUPPORT`` states.  Returns the answer-carrying description and the
    model document.
    """
    levels: list[Level] = []
    sets: dict[str, list[dict[str, str]]] = {}
    for k, (core_size, n_trans, cyc) in enumerate(shape):
        if cyc == 2 and core_size % 2:
            raise ValueError("a period-2 core needs an even size")
        core = [f"L{k + 1}c{i}" for i in range(core_size)]
        trans = [f"L{k + 1}t{i}" for i in range(n_trans)]
        leak_pool = list(levels[-1].core) if levels else None
        sets.update(_core_pmfs(rng, core, cyc, leak_pool, SUPPORT, pmfs))
        for t in trans:
            sets[t] = [
                _pmf(rng, [rng.choice(core)], core + trans, SUPPORT)
                for _ in range(rng.randint(1, pmfs))
            ]
        levels.append(Level(tuple(core), tuple(trans), cyc))
    order = [s for level in levels for s in level.states]
    rng.shuffle(order)
    document = {"states": order, "credal_sets": {s: sets[s] for s in order}}
    edges = tuple(
        sorted({(x, y) for x, dists in sets.items() for p in dists for y in p})
    )
    flags = ("--suite", str(suite)) if suite is not None else ()
    model = Planted(
        name=name,
        source=f"{name}.json",
        flags=flags,
        levels=tuple(levels),
        edges=edges,
        suite=suite,
    )
    return model, document


def builtin_model(suite: int | None) -> Planted:
    """The paper's counterexample: not finitely generated, so only ``inconclusive``.

    Its level-2 restriction to ``{b, c}`` is a swap of cyclicity 2, while in
    the full graph ``b`` has a self-loop, so the class ``{b, c}`` is aperiodic
    there.
    """
    return Planted(
        name="counterexample-5.1",
        source=BUILTIN,
        flags=("--suite", str(suite)) if suite is not None else (),
        levels=(
            Level(("a",), (), 1),
            Level(("b", "c"), (), 2, top_cyclicity=1),
        ),
        edges=(
            ("a", "a"),
            ("b", "a"),
            ("b", "b"),
            ("b", "c"),
            ("c", "a"),
            ("c", "b"),
        ),
        finitely_generated=False,
        suite=suite,
    )


@dataclass(frozen=True)
class Workload:
    """How many models of which shape, and what else each run analyses."""

    name: str
    models: int
    suite: int | None
    with_builtin: bool
    pmfs: int = PMFS

    def shape(self, rng: random.Random, i: int, quick: bool) -> list[tuple[int, int, int]]:
        if self.name == "structure":
            # 4 levels of a 10-state core plus 2 absorbed transients; every
            # fourth model has a period-2 core at its deepest level.
            levels, core, trans = (2, 6, 2) if quick else (4, 10, 2)
            cycs = [1] * levels
            if i % 4 == 3:
                cycs[-1] = 2
            return [(core, trans, c) for c in cycs]
        if self.name == "orbit":
            # 2 levels of 16 states; every other model has a period-2 core,
            # alternately at the bottom and at the top level.
            core, trans = (4, 2) if quick else (12, 4)
            cycs = [1, 1]
            if i % 2 == 1:
                cycs[(i // 2) % 2] = 2
            return [(core, trans, c) for c in cycs]
        if self.name == "screen":
            # 1-3 levels in turn, 4-12 states; every fourth model has a
            # period-2 core.  A fixed mix keeps the median off the seed.
            levels = 1 + i % 3
            periodic = rng.randrange(levels) if i % 4 == 3 else None
            while True:
                shape = []
                for k in range(levels):
                    cyc = 2 if k == periodic else 1
                    core = rng.choice((2, 4)) if cyc == 2 else rng.randint(1, 3)
                    shape.append((core, rng.randint(0, 1), cyc))
                if 4 <= sum(c + t for c, t, _ in shape) <= 12:
                    return shape
        raise ValueError(f"unknown workload {self.name!r}")


# Structure models have 48 states rather than 96, so that a 30-second run
# times about 60 analyses and its tail percentile lies well above the median.
# Every workload draws more distinct models than a 30-second run analyses, so
# that a run's median and tail come from different models rather than from
# the repeats of a few.
# Orbit states have up to 8 pmfs.  An orbit's length is set by how fast the
# model mixes, and with up to 3 pmfs that varied so much from model to model
# (per-model times spread with a coefficient of variation of 0.33-0.6) that
# the 25-35 models one run analyses gave seed-to-seed spreads of 0.10-0.12
# in the orbit figures; with up to 8 it is about 0.2, and the models are
# cheaper too.  With up to 3 pmfs and supports of 4 states, now and then a
# model mixed so slowly that its suite ran for tens of seconds.
WORKLOADS = {
    "structure": Workload("structure", models=72, suite=None, with_builtin=False),
    "orbit": Workload("orbit", models=64, suite=20, with_builtin=True, pmfs=8),
    "screen": Workload("screen", models=2400, suite=None, with_builtin=False),
}

QUICK_SUITE = 2


def suite_size(workload: str, quick: bool) -> int | None:
    spec = WORKLOADS[workload]
    return QUICK_SUITE if (quick and spec.suite is not None) else spec.suite


def generate(workload: str, seed: int, quick: bool = False) -> tuple[list[Planted], Planted, dict[str, str]]:
    """Models for one run: the timed list, the warm-up model and all file texts.

    The warm-up model is small and uses the workload's flags, so that a run's
    set-up pays for first-call costs without timing a full-size analysis.
    """
    spec = WORKLOADS[workload]
    suite = suite_size(workload, quick)
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, str] = {}

    def emit(model: Planted, document: dict) -> Planted:
        files[model.source] = json.dumps(document, separators=(",", ":")) + "\n"
        return model

    # The warm-up model is the same for every seed, so set-up time does not
    # vary with the seed.
    warm_rng = random.Random(f"{workload}:warmup")
    warmup = emit(*make_model(warm_rng, "warmup", [(3, 1, 1), (2, 1, 1)], suite, spec.pmfs))
    count = 4 if quick else spec.models
    models = [
        emit(*make_model(rng, f"{workload}-{i:03d}", spec.shape(rng, i, quick), suite,
                         spec.pmfs))
        for i in range(count)
    ]
    if spec.with_builtin:
        models.insert(0, builtin_model(suite))
    return models, warmup, files
