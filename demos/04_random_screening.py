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

from imclim import CredalOperator, decide_convergence, decompose, oracle_compare, parse_model


def random_pmf(rng: random.Random, labels: str) -> dict[str, str]:
    """A pmf as a model file writes it: masses ``"part/q"`` on a random support."""
    support = sorted(rng.sample(range(len(labels)), rng.randint(1, len(labels))))
    q = rng.randint(1, 8)
    cuts = sorted(rng.randint(0, q) for _ in range(len(support) - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    return {labels[idx]: f"{part}/{q}" for idx, part in zip(support, parts)}


def random_operator(rng: random.Random) -> CredalOperator:
    labels = "abcdefgh"[:rng.randint(2, 5)]
    sets = {x: [random_pmf(rng, labels) for _ in range(rng.randint(1, 3))] for x in labels}
    return parse_model({"states": list(labels), "credal_sets": sets})


rng = random.Random(2026)
verdicts = Counter()
agreements = 0
disagreements = []

INSTANCES = 300
for k in range(INSTANCES):
    op = random_operator(rng)
    verdict = decide_convergence(op, decompose(op))
    verdicts[verdict.convergent] += 1
    comparison = oracle_compare(op, verdict.convergent, extra_random=5, seed=k)
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
