"""Screen random finitely generated operators: symbolic verdict vs orbit oracle.

For finitely generated operators the regular-levels condition decides
convergence exactly, so the symbolic verdict and the numerical orbit suite
should always agree -- "yes" means every sampled orbit flattens out, "no"
means some sampled orbit cycles.  This demo samples a few hundred operators
and tabulates the outcome.

Run from the repository root:  python demos/04_random_screening.py
"""

import random
from collections import Counter
from fractions import Fraction

from imclim import (
    CredalFamily,
    CredalOperator,
    Pmf,
    StateSpace,
    decide_convergence,
    decompose,
    oracle_compare,
)


def random_pmf(rng: random.Random, n: int) -> Pmf:
    support = sorted(rng.sample(range(n), rng.randint(1, n)))
    q = rng.randint(1, 8)
    cuts = sorted(rng.randint(0, q) for _ in range(len(support) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    return Pmf(n, {idx: Fraction(part, q) for idx, part in zip(support, parts)})


def random_operator(rng: random.Random) -> CredalOperator:
    n = rng.randint(2, 5)
    space = StateSpace(tuple("abcdefgh"[:n]))
    per = tuple(
        tuple(random_pmf(rng, n) for _ in range(rng.randint(1, 3)))
        for _ in range(n)
    )
    return CredalOperator(CredalFamily(space, per))


rng = random.Random(2026)
verdicts = Counter()
agreements = 0
disagreements = []

INSTANCES = 300
for k in range(INSTANCES):
    op = random_operator(rng)
    verdict = decide_convergence(op, decompose(op))
    verdicts[verdict.convergent] += 1
    comparison = oracle_compare(op, verdict, extra_random=5, seed=k)
    if comparison.agrees:
        agreements += 1
    else:
        disagreements.append((k, verdict.convergent, comparison.discrepancies))

print(f"sampled {INSTANCES} random finitely generated operators")
print(f"  verdicts: {dict(verdicts)}")
print(f"  orbit oracle agreement: {agreements}/{INSTANCES}")
for k, verdict, issues in disagreements:
    print(f"  instance {k} ({verdict}):")
    for issue in issues:
        print(f"    {issue}")
if not disagreements:
    print("  no disagreements: every 'yes' was backed by flat orbits and every")
    print("  'no' by a concrete cycling orbit from the suite")
