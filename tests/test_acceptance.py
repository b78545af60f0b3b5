"""Acceptance gate.

Each test implements one acceptance criterion at its stated tolerance and
prints a single ``[acceptance] criterion N: PASS/FAIL`` line (run pytest with
``-s`` or check the captured output).  Criterion 2 is split into its symbolic
part (2a) and its orbit-suite part (2b); 2b is expected to fail at the pinned
parameters because the closed-form operator's orbits approach their limit at
rate O(1/n), see the assertion message for the measured numbers.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import gen
from conftest import make_running_operator
from imclim import (
    CounterexampleOperator,
    OrbitParams,
    analyze,
    build_graph,
    communication_classes,
    decide_convergence,
    decide_convergence_on_xm,
    decompose,
    default_function_suite,
    iterate_orbit,
    iterate_orbits,
    lower_reach_set,
    partition_states,
)

F = Fraction


def _criterion(num: str, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"\n[acceptance] criterion {num} ({name}): {status}{suffix}")


# ---------------------------------------------------------------------------
# criterion 1: running-example pipeline, exact, < 1 s


def test_criterion_1_running_example_pipeline():
    start = time.perf_counter()
    op = make_running_operator()
    lab = op.space.labels_of

    failures = []

    classes = communication_classes(build_graph(op.supports()))
    got_members = {lab(c.members) for c in classes}
    if got_members != {("a",), ("b",), ("c", "d", "e")}:
        failures.append(f"classes {got_members}")
    got_maximal = {lab(c.members) for c in classes if c.is_maximal}
    if got_maximal != {("a",), ("b",)}:
        failures.append(f"maximal {got_maximal}")

    closed = {lab(s) for s in gen.closed_subsets(op)}
    if closed != {("a",), ("b",), ("a", "b"), ("a", "b", "c", "d", "e")}:
        failures.append(f"closed classes {closed}")

    reach, sequence = lower_reach_set(op.supports(), {0, 1})
    if lab(sequence[1]) != ("a", "b", "c") or lab(reach) != ("a", "b", "c"):
        failures.append(f"reach sequence {[lab(s) for s in sequence]}")

    part = partition_states(op.supports(), classes)
    if lab(part.absorbed_transients) != ("c",):
        failures.append(f"absorbed {lab(part.absorbed_transients)}")
    if lab(part.unabsorbed_transients) != ("d", "e"):
        failures.append(f"unabsorbed {lab(part.unabsorbed_transients)}")

    dec = decompose(op)
    if dec.depth != 2:
        failures.append(f"depth {dec.depth}")
    else:
        part2 = dec.levels[1].partition
        got = [part2.space.labels_of(m) for m in part2.maximal_classes]
        if got != [("d", "e")]:
            failures.append(f"level-2 classes {got}")

    verdict = decide_convergence(op, dec)
    if verdict.ergodic != "no":
        failures.append(f"ergodic {verdict.ergodic}")
    if verdict.convergent != "yes":
        failures.append(f"convergent {verdict.convergent}")

    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.3f}s >= 1s")

    _criterion("1", "running-example pipeline", not failures, f"runtime {elapsed:.3f}s")
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 2: counterexample pipeline


def test_criterion_2a_counterexample_symbolic():
    start = time.perf_counter()
    op = CounterexampleOperator()
    lab = op.space.labels_of

    failures = []
    classes = communication_classes(build_graph(op.supports()))
    part = partition_states(op.supports(), classes)
    if lab(part.maximal_states) != ("a",):
        failures.append(f"maximal states {lab(part.maximal_states)}")
    if lab(part.unabsorbed_transients) != ("b", "c"):
        failures.append(f"unabsorbed {lab(part.unabsorbed_transients)}")

    dec = decompose(op)
    if dec.depth != 2:
        failures.append(f"depth {dec.depth}")
    else:
        level2 = dec.levels[1]
        level2_info = [c for c in level2.classes if c.is_maximal]
        if [level2.partition.space.labels_of(c.members) for c in level2_info] != [("b", "c")]:
            failures.append("level-2 class mismatch")
        elif level2_info[0].cyclicity != 2:
            failures.append(f"level-2 cyclicity {level2_info[0].cyclicity}")

    verdict = decide_convergence(op, dec)
    if verdict.convergent != "inconclusive":
        failures.append(f"verdict {verdict.convergent}")

    elapsed = time.perf_counter() - start
    _criterion("2a", "counterexample symbolic pipeline", not failures,
               f"runtime {elapsed:.3f}s")
    assert not failures, failures


def test_criterion_2b_counterexample_orbit_suite():
    """Orbit suite at tolerance 1e-9, budget 5000: period 1 for every f with
    limits matching (f(a), max f, max f) within 1e-8.

    The pinned budget cannot certify this: orbits of this operator approach
    their limit at rate ~8/n (measured), so after 5000 iterations the gap to
    the limit is ~1.6e-3 and no period is detectable at tolerance 1e-9 for
    any start function with f(a) < max f and f(b) != f(c).  The criterion is
    asserted exactly as stated and is expected to fail; see the decision log.
    """
    start = time.perf_counter()
    op = CounterexampleOperator()
    params = OrbitParams(tolerance=1e-9, max_iters=5000)
    suite = default_function_suite(op, extra=20, rng=np.random.default_rng(0))

    failures = []
    for label, f in suite:
        expected = np.array([f[0], max(f), max(f)])
        result = iterate_orbit(op, f, params)
        if result.detected_period != 1:
            seen = result.detected_period or "none within budget"
            gap = float(np.max(np.abs(result.iterates_kept[-1] - expected)))
            failures.append(f"{label}: period {seen}, gap to limit {gap:.2e}")
        else:
            gap = float(np.max(np.abs(result.limit - expected)))
            if gap > 1e-8:
                failures.append(f"{label}: limit off by {gap:.2e}")

    elapsed = time.perf_counter() - start
    runtime_ok = elapsed < 5.0
    ok = not failures and runtime_ok
    detail = f"runtime {elapsed:.2f}s, {len(failures)}/{len(suite)} functions failed"
    _criterion("2b", "counterexample orbit suite at pinned budget", ok, detail)
    assert ok, (
        f"{len(failures)} of {len(suite)} suite functions cannot be certified "
        f"within 5000 iterations at tolerance 1e-9 (O(1/n) approach rate): "
        + "; ".join(failures[:5])
    )


# ---------------------------------------------------------------------------
# criterion 3: symbolic verdict vs orbit oracle on random finitely
# generated operators, < 2 min


def test_criterion_3_verdict_oracle_agreement():
    start = time.perf_counter()
    rng = random.Random(20260809)
    instances = 500
    params = OrbitParams()
    retry_params = OrbitParams(max_iters=50000)

    yes_failures = []
    no_count = 0
    no_witnessed = 0
    no_exceptions = []
    no_uncertified = []

    for k in range(instances):
        op = gen.random_operator(rng, n=rng.randint(2, 5), max_pmfs=3, max_den=8)
        verdict = decide_convergence(op, decompose(op))
        suite = default_function_suite(op, extra=10, rng=np.random.default_rng(k))
        results = iterate_orbits(op, np.stack([f for _, f in suite], axis=1), params)
        if verdict.convergent == "yes":
            for (label, f), result in zip(suite, results):
                if result.detected_period != 1:
                    # one honest retry with a larger budget before flagging
                    result = iterate_orbit(op, f, retry_params)
                if result.detected_period != 1:
                    yes_failures.append(
                        {
                            "instance": k,
                            "function": label,
                            "period": result.detected_period,
                            "model": gen.family_to_jsonable(op.family),
                        }
                    )
        elif verdict.convergent == "no":
            no_count += 1
            # the certificate: a cyclic indicator inside the witness class, period d
            certificate = analyze(op).witness_orbit
            label = certificate.label if certificate else ""
            named = label.removeprefix("cyclic-indicator:{").removesuffix("}").split(", ")
            if not (
                label.startswith("cyclic-indicator:{")
                and set(named) <= set(verdict.witness.members)
                and certificate.period == verdict.witness.cyclicity
            ):
                no_uncertified.append(k)
            if any(result.detected_period not in (None, 1) for result in results):
                no_witnessed += 1
            else:
                no_exceptions.append(
                    {
                        "instance": k,
                        "witness_class": list(verdict.witness.members),
                        "witness_level": verdict.witness.level,
                        "model": gen.family_to_jsonable(op.family),
                    }
                )
        else:
            pytest.fail("finitely generated operators never yield 'inconclusive'")

    elapsed = time.perf_counter() - start
    witness_rate = no_witnessed / no_count if no_count else 1.0
    failures = []
    if yes_failures:
        failures.append(f"{len(yes_failures)} 'yes' instances with a non-converging suite orbit")
    if witness_rate < 0.95:
        failures.append(f"witness rate {witness_rate:.1%} < 95%")
    if no_uncertified:
        failures.append(f"'no' instances {no_uncertified} without a certificate on their witness")
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")

    for record in no_exceptions:
        print(f"[acceptance] criterion 3 logged exception: {json.dumps(record)}")
    for record in yes_failures:
        print(f"[acceptance] criterion 3 'yes' mismatch: {json.dumps(record)}")

    detail = (
        f"{instances} instances, {no_count} 'no' verdicts, witness rate "
        f"{witness_rate:.1%}, {len(no_exceptions)} logged exceptions, runtime {elapsed:.1f}s"
    )
    _criterion("3", "verdict/orbit-oracle agreement", not failures, detail)
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 4: exact property suites, >= 1000 randomized cases each


def test_criterion_4_property_suites():
    start = time.perf_counter()
    counts = {}
    failures = []

    # operator axioms plus the conjugacy dual route, exact
    rng = random.Random(101)
    n_cases = 1000
    for _ in range(n_cases):
        op = gen.random_operator(rng)
        f = gen.random_rational_function(rng, op.n)
        g = gen.random_rational_function(rng, op.n)
        upper_f, upper_g = gen.apply_exact(op, f), gen.apply_exact(op, g)
        both = gen.apply_exact(op, tuple(a + b for a, b in zip(f, g)))
        if not all(a <= b + c for a, b, c in zip(both, upper_f, upper_g)):
            failures.append("subadditivity")
        lam = F(rng.randint(0, 12), rng.randint(1, 6))
        if gen.apply_exact(op, tuple(lam * a for a in f)) != tuple(lam * v for v in upper_f):
            failures.append("positive homogeneity")
        lower_f = gen.apply_lower_exact(op, f)
        if not all(min(f) <= a <= b <= max(f) for a, b in zip(lower_f, upper_f)):
            failures.append("bounds")
        bump = tuple(F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(op.n))
        bigger = gen.apply_exact(op, tuple(a + b for a, b in zip(f, bump)))
        if not all(a <= b for a, b in zip(upper_f, bigger)):
            failures.append("monotonicity")
        mu = F(rng.randint(-8, 8), rng.randint(1, 4))
        if gen.apply_exact(op, tuple(mu + a for a in f)) != tuple(mu + v for v in upper_f):
            failures.append("constant additivity")
        xmax = max(range(op.n), key=lambda i: f[i])
        span = max(f) - min(f)
        hit = gen.upper_indicator(op, xmax)
        if not all(span * h + min(f) <= v for h, v in zip(hit, upper_f)):
            failures.append("argmax indicator bound")
        if lower_f != gen.lower_direct(op, f):
            failures.append("conjugacy vs direct minimum")
    counts["axioms+conjugacy"] = n_cases

    # indicator complement identity, exhaustive over subsets, n <= 6
    rng = random.Random(102)
    identity_cases = 0
    while identity_cases < 1000:
        op = gen.random_operator(rng, n=rng.randint(2, 6))
        for bits in range(2**op.n):
            subset = frozenset(i for i in range(op.n) if bits >> i & 1)
            complement = frozenset(range(op.n)) - subset
            upper = (
                gen.upper_indicator(op, subset) if subset else (F(0),) * op.n
            )
            ind_complement = tuple(F(int(i in complement)) for i in range(op.n))
            lower = gen.lower_direct(op, ind_complement)
            if upper != tuple(1 - v for v in lower):
                failures.append(f"indicator identity on subset {sorted(subset)}")
            identity_cases += 1
    counts["indicator identity"] = identity_cases

    # restriction inequality and the exact equality on maximal classes
    rng = random.Random(103)
    ineq_cases = 0
    while ineq_cases < 1000:
        op = gen.random_operator(rng, n=rng.randint(2, 4))
        keep = sorted(gen.random_subset(rng, op.n, allow_full=False))
        try:
            restricted = gen.restrict(op, keep)
        except Exception:
            continue
        f = gen.random_rational_function(rng, op.n)
        local = tuple(f[i] for i in keep)
        global_iter = f
        ok = True
        for _ in range(3):
            local = gen.apply_exact(restricted, local)
            global_iter = gen.apply_exact(op, global_iter)
            clipped = tuple(global_iter[i] for i in keep)
            ok = ok and all(a <= b for a, b in zip(local, clipped))
        if not ok:
            failures.append("restriction inequality")
        ineq_cases += 1
    counts["restriction inequality"] = ineq_cases

    rng = random.Random(104)
    equality_cases = 0
    while equality_cases < 1000:
        op = gen.random_operator(rng, n=rng.randint(2, 4))
        part = partition_states(op.supports())
        for members in part.maximal_classes:
            keep = sorted(members)
            restricted = gen.restrict(op, keep)
            f = gen.random_rational_function(rng, op.n)
            local = tuple(f[i] for i in keep)
            global_iter = f
            for _ in range(3):
                local = gen.apply_exact(restricted, local)
                global_iter = gen.apply_exact(op, global_iter)
                clipped = tuple(global_iter[i] for i in keep)
                if local != clipped:
                    failures.append("maximal-class restriction equality")
            equality_cases += 1
    counts["maximal-class equality"] = equality_cases

    # nested two-cut identity
    from imclim import NotWellDefinedError

    rng = random.Random(105)
    nested_cases = 0
    while nested_cases < 1000:
        op = gen.random_operator(rng, n=rng.randint(2, 4))
        outer = gen.random_subset(rng, op.n)
        inner = frozenset(i for i in outer if rng.random() < 0.6)
        if not inner:
            continue
        try:
            gen.restrict(op, outer)
            gen.restrict(op, inner)
        except NotWellDefinedError:
            continue
        if not gen.nested_restriction_check(op, outer, inner):
            failures.append("nested restriction identity")
        nested_cases += 1
    counts["nested restriction"] = nested_cases

    # fixpoint reach sets vs brute-force lower-step positivity, n <= 5
    rng = random.Random(106)
    reach_cases = 0
    while reach_cases < 1000:
        op = gen.random_operator(rng, n=rng.randint(2, 5))
        for target in gen.closed_subsets(op):
            reach, sequence = lower_reach_set(op.supports(), target)
            oracle = gen.brute_force_lower_reach(op, target)
            for step, positives in oracle.items():
                if positives != sequence[min(step, len(sequence) - 1)]:
                    failures.append("reach fixpoint vs brute force")
            if reach != oracle[op.n] or len(sequence) > op.n - len(target) + 1:
                failures.append("reach fixpoint size")
            reach_cases += 1
    counts["reach fixpoint"] = reach_cases

    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k}: {v}" for k, v in counts.items()) + f", runtime {elapsed:.1f}s"
    _criterion("4", "exact property suites", not failures, detail)
    assert not failures, sorted(set(failures))


# ---------------------------------------------------------------------------
# criterion 5: single-class equivalences and the limit bound


def _constant_limit_suite(op, extra_fns=()):
    suite = default_function_suite(op, extra=4, rng=np.random.default_rng(5))
    return list(suite) + [(f"extra:{i}", np.asarray(f, float)) for i, f in enumerate(extra_fns)]


def test_criterion_5_single_class_equivalences():
    start = time.perf_counter()
    params = OrbitParams(burn_in=50, max_iters=20000, max_period=32)
    failures = []

    # regular <=> every sampled orbit flattens to a constant
    rng = random.Random(201)
    regular_seen = 0
    nonregular_seen = 0
    while regular_seen + nonregular_seen < 300:
        if nonregular_seen < 120 and (regular_seen + nonregular_seen) % 2 == 0:
            blocks = rng.choice([2, 2, 3])
            op, partition = gen.block_cyclic_operator(rng, blocks)
            block_fns = []
            for block in partition:
                vec = np.zeros(op.n)
                vec[block] = 1.0
                block_fns.append(vec)
        else:
            op = gen.random_single_class_operator(rng)
            block_fns = []
        graph = build_graph(op.supports())
        cyc = gen.cyclicity(graph, range(op.n))
        regular = cyc == 1
        numeric_constant = True
        for label, f in _constant_limit_suite(op, block_fns):
            result = iterate_orbit(op, f, params)
            if not result.converged or result.limit.max() - result.limit.min() > 1e-6:
                numeric_constant = False
                break
        if regular != numeric_constant:
            failures.append(
                f"regular={regular} but numeric ergodicity={numeric_constant} "
                f"(cyclicity {cyc}, n={op.n})"
            )
        if regular:
            regular_seen += 1
        else:
            nonregular_seen += 1

    # limit domination on >= 200 regular instances
    rng = random.Random(202)
    bound_checked = 0
    while bound_checked < 200:
        op = gen.random_single_class_operator(rng)
        graph = build_graph(op.supports())
        if gen.cyclicity(graph, range(op.n)) != 1:
            continue
        f = np.array([rng.random() for _ in range(op.n)])
        if op.n > 1 and f.max() - f.min() < 1e-3:
            continue
        phi = gen.orbit_limit_on_regular_class(op, frozenset(range(op.n)), f, params)
        if phi < f.min() - 1e-9:
            failures.append("limit fails to dominate the minimum")
        if op.n > 1 and not phi > f.min():
            failures.append("limit not strictly above the minimum for non-constant f")
        bound_checked += 1

    # convergence on the maximal states matches per-class regularity
    rng = random.Random(203)
    xm_checked = 0
    for _ in range(200):
        op = gen.random_operator(rng, n=rng.randint(2, 4))
        classes = communication_classes(build_graph(op.supports()))
        flag = decide_convergence_on_xm(classes)
        per_class = all(c.cyclicity == 1 for c in classes if c.is_maximal)
        if flag != per_class:
            failures.append("convergence-on-maximal-states mismatch")
        xm_checked += 1

    elapsed = time.perf_counter() - start
    detail = (
        f"{regular_seen} regular + {nonregular_seen} non-regular instances, "
        f"{bound_checked} bound checks, {xm_checked} flag checks, runtime {elapsed:.1f}s"
    )
    _criterion("5", "single-class equivalences and limit bound", not failures, detail)
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 6: gcd cyclicity vs matrix-power oracle, >= 1000 graphs


def test_criterion_6_cyclicity_vs_power_oracle():
    start = time.perf_counter()
    rng = random.Random(301)
    failures = []
    cases = 1000
    regular_count = 0
    for _ in range(cases):
        graph = gen.random_scc_graph(rng, max_nodes=8)
        members = range(graph.n)
        cyc = gen.cyclicity(graph, members)
        oracle = gen.regularity_oracle(graph, members)
        if (cyc == 1) != oracle:
            failures.append(f"cyclicity {cyc} vs oracle {oracle} on {graph.labels}")
        if oracle:
            regular_count += 1
    elapsed = time.perf_counter() - start
    detail = f"{cases} graphs ({regular_count} regular), runtime {elapsed:.1f}s"
    _criterion("6", "cyclicity vs boolean-power oracle", not failures, detail)
    assert not failures, failures[:5]
