"""Limit-cycle detection on orbits of upper transition operators.

Orbits of these operators always settle on a finite cycle of functions.  This
demo builds a small operator whose transient part is a deterministic swap, so
indicator orbits end in genuine period-2 cycles, and shows how the engine
reports periods, residuals and the cycle itself -- plus CSV trace export.

Run from the repository root:  python demos/03_orbit_engine.py
"""

from pathlib import Path

import numpy as np

from imclim import OrbitParams, iterate_orbit, parse_model, replay_orbit, write_orbit_trace

# one absorbing state, and a b<->c swap that never reaches it
op = parse_model({
    "states": ["a", "b", "c"],
    "credal_sets": {
        "a": [{"a": "1"}],
        "b": [{"a": "1"}, {"c": "1"}],
        "c": [{"b": "1"}],
    },
})

print("== a cycling orbit ==")
start = np.array([0.0, 1.0, 0.0])
result = iterate_orbit(op, start)
print(f"  detected period: {result.detected_period}")
print(f"  residual: {result.residual:.1e} after {result.iterations} iterations")
for k, element in enumerate(result.limit_cycle):
    print(f"  cycle[{k}] = {element}")

trace_path = Path(__file__).resolve().parent / "swap-orbit.csv"
with open(trace_path, "w", newline="") as handle:
    # the run keeps only its window; the trace replays the orbit from the start
    write_orbit_trace(handle, op.space.labels, replay_orbit(op, start, result.iterations))
print(f"  full trace written to {trace_path}")

print("\n== a converging orbit on the same operator ==")
result = iterate_orbit(op, np.array([1.0, 0.2, 0.8]))
print(f"  detected period: {result.detected_period}")
print(f"  limit: {result.limit}")

print("\n== what the engine never does ==")
# scan only for fixed points: the alternating orbit is invisible then
tight = OrbitParams(max_iters=50, max_period=1, burn_in=0)
result = iterate_orbit(op, np.array([0.0, 0.25, 0.75]), tight)
print(f"  scanning periods up to 1 only: period = {result.detected_period}")
print("  an undetected cycle is reported as 'none within budget', never as divergence")
