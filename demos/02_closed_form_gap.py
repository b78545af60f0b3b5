"""The one-way gap: a convergent operator the regular-levels test cannot certify.

The builtin three-state operator keeps state a fixed, swaps b and c after
restriction, and lets b maximise over a whole curve of pmfs.  Its level-2
class {b, c} has cyclicity 2, so the sufficient condition for convergence
fails -- yet every orbit converges, to (f(a), max f, max f).  Because the
operator is not finitely generated, the analyzer correctly answers
"inconclusive" instead of "no".

Its orbits close in only like 8/n, so iteration alone would need about 10^9
steps to certify period 1 at the default tolerance.  The operator declares
its limit in closed form instead, and the orbit engine certifies it on step
W = burn_in - max_period + 1 for every orbit still moving there.  The demo
shows the certificate, then replays the orbit to show the ~8/n gap that
makes it necessary.

Run from the repository root:  python demos/02_closed_form_gap.py
"""

from collections import Counter

import numpy as np

from imclim import OrbitParams, analyze, iterate_orbit, load_model, replay_orbit

op = load_model("builtin:counterexample-5.1")
report = analyze(op, model_name="builtin:counterexample-5.1", suite_random=20)
data = report.to_dict()

print("== symbolic analysis ==")
for level in data["decomposition"]["levels"]:
    names = ", ".join(
        "{" + ", ".join(c["members"]) + f"}} cyclicity {c['cyclicity']}"
        for c in level["maximal_classes"]
    )
    print(f"  level {level['level']}: maximal {names}")
v = data["verdicts"]
print(f"  verdict: {v['convergent']} ({v['basis']['convergent']})")
print(f"  witness: {v['witness']}")
for note in v["notes"]:
    print(f"  note: {note}")
periods = Counter(check["period"] for check in data["orbit_evidence"]["checks"])
print(f"  orbit suite of {sum(periods.values())} functions: periods {dict(periods)}")

print("\n== the certified limit of the indicator of b ==")
f = np.array([0.0, 1.0, 0.0])
params = OrbitParams()
result = iterate_orbit(op, f, params)
print(f"  stop reason {result.stop_reason!r} on step {result.iterations} "
      f"(W = {params.burn_in} - {params.max_period} + 1), period {result.detected_period}")
print(f"  limit {result.limit.tolist()} = (f(a), max f, max f)")
print(f"  period-1 residual on W: {result.residual:.3e}, "
      f"far outside the tolerance {params.tolerance:g}")
spent = iterate_orbit(op, f, OrbitParams(burn_in=params.max_iters + params.max_period))
print(f"  with W past the budget: period {spent.detected_period}, "
      f"stop reason {spent.stop_reason!r} after {spent.iterations} steps")

print("\n== the replayed orbit closes like 8/n ==")
scale = result.limit[1] - result.limit[0]  # max f - f(a)
marks = (10, 100, 1000, 10000, 30000)
for n, iterate in enumerate(replay_orbit(op, f, marks[-1])):
    if n in marks:
        gap = float(np.max(np.abs(iterate - result.limit)))
        print(f"  n = {n:>5}: gap to the limit {gap:.3e}, "
              f"n * gap / (max f - f(a)) = {n * gap / scale:.3f}")
