"""Walk the full pipeline on the five-state demo model.

States a and b sit still; c spreads uniformly over {a, b, d, e}; d and e can
each jump to any of {c, d, e}.  The operator has two maximal classes, one
transient state that gets absorbed and two that never are -- and it is
convergent although it is not ergodic.

Run from the repository root:  python demos/01_running_example.py
"""

from pathlib import Path

from imclim import (
    analyze,
    build_graph,
    communication_classes,
    load_model,
    to_dot,
)

HERE = Path(__file__).resolve().parent

op = load_model(HERE / "running-example.json")


def labels(states):
    return sorted(op.space.labels[x] for x in states)


print("== accessibility graph ==")
graph = build_graph(op.supports())
for x, y in sorted((graph.labels[a], graph.labels[b]) for a, b in graph.edges()):
    print(f"  {x} -> {y}")

print("\n== communication classes ==")
classes = communication_classes(graph)
for info in classes:
    tags = []
    if info.is_maximal:
        tags.append("maximal")
    if info.is_closed:
        tags.append("closed")
    tags.append(f"cyclicity {info.cyclicity}")
    print(f"  {{{', '.join(labels(info.members))}}}: {', '.join(tags)}")

report = analyze(op, model_name="running-example")
data = report.to_dict()

print("\n== partition by limit role ==")
part = data["partition"]
print(f"  maximal states:        {part['maximal_states']}")
print(f"  absorbed transients:   {part['absorbed_transients']}")
print(f"  unabsorbed transients: {part['unabsorbed_transients']}")
print(f"  growth of the reach set: {part['reach_sequence']}")

print("\n== decomposition ==")
for level in data["decomposition"]["levels"]:
    names = ", ".join(
        "{" + ", ".join(c["members"]) + f"}} cyclicity {c['cyclicity']}"
        for c in level["maximal_classes"]
    )
    print(f"  level {level['level']}: maximal {names}; absorbed {level['absorbed']}")

v = data["verdicts"]
print("\n== verdicts ==")
print(f"  convergent: {v['convergent']}  ({v['basis']['convergent']})")
print(f"  ergodic:    {v['ergodic']}   ({v['basis']['ergodic']})")
print(f"  convergent on the maximal states: {v['convergent_on_maximal_states']}")

dot_path = HERE / "running-example.dot"
dot_path.write_text(to_dot(graph))
print(f"\nDOT graph written to {dot_path}")
