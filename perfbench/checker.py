"""Compare one ``analyze --json`` result with the generator's planted answer."""

from __future__ import annotations

import json
from pathlib import Path

from planted import Planted, answer


def load_validator(root: Path):
    """Schema validator for ``docs/report.schema.json`` of the checkout at ``root``."""
    from jsonschema import Draft202012Validator

    schema = json.loads((root / "docs" / "report.schema.json").read_text())
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


def check(model: Planted, exit_code: int, stdout: str, validator) -> list[str]:
    """Every way the output misses the planted answer; empty when it matches."""
    want = answer(model)
    misses: list[str] = []

    def expect(what: str, got, wanted) -> None:
        if got != wanted:
            misses.append(f"{model.name}: {what} is {got!r}, expected {wanted!r}")

    expect("exit code", exit_code, want.exit_code)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return misses + [f"{model.name}: output is not JSON ({exc})"]
    schema_errors = sorted(validator.iter_errors(report), key=str)
    if schema_errors:
        return misses + [f"{model.name}: schema: {schema_errors[0].message}"]

    states = model.states
    levels = model.levels
    expect("states", sorted(report["model"]["states"]), sorted(states))
    expect("finitely_generated", report["model"]["finitely_generated"], model.finitely_generated)
    expect("edges", sorted(map(tuple, report["graph"]["edges"])), sorted(model.edges))

    # Level-1 classes: each core is a class, maximal and closed only at level 1.
    classes = {tuple(sorted(c["members"])): c for c in report["classes"]}
    covered = sorted(s for members in classes for s in members)
    expect("states covered by classes", covered, sorted(states))
    cores = set()
    for k, level in enumerate(levels, start=1):
        key = tuple(sorted(level.core))
        cores.add(key)
        info = classes.get(key)
        if info is None:
            misses.append(f"{model.name}: core of level {k} is not a class")
            continue
        cyc = level.top_cyclicity or level.cyclicity
        expect(f"level-{k} core class", (info["maximal"], info["closed"], info["cyclicity"]),
               (k == 1, k == 1, cyc))
    for key, info in classes.items():
        if key not in cores and info["maximal"]:
            misses.append(f"{model.name}: transient class {list(key)} reported maximal")

    top = levels[0]
    rest = [s for level in levels[1:] for s in level.states]
    part = report["partition"]
    expect("partition", (
        [sorted(m) for m in part["maximal_classes"]],
        sorted(part["maximal_states"]),
        sorted(part["absorbed_transients"]),
        sorted(part["unabsorbed_transients"]),
        [sorted(s) for s in part["reach_sequence"]],
    ), (
        [sorted(top.core)],
        sorted(top.core),
        sorted(top.transients),
        sorted(rest),
        [sorted(top.core)] + ([sorted(top.states)] if top.transients else []),
    ))

    dec = report["decomposition"]
    expect("depth", dec["depth"], len(levels))
    for k, (got, level) in enumerate(zip(dec["levels"], levels), start=1):
        below = [s for lv in levels[k:] for s in lv.states]
        expect(f"level {k}", (
            got["level"],
            sorted(got["states"]),
            [(sorted(c["members"]), c["cyclicity"]) for c in got["maximal_classes"]],
            sorted(got["absorbed"]),
            sorted(got["remaining"]),
        ), (
            k,
            sorted(list(level.states) + below),
            [(sorted(level.core), level.cyclicity)],
            sorted(level.transients),
            sorted(below),
        ))

    v = report["verdicts"]
    expect("convergent", v["convergent"], want.convergent)
    expect("ergodic", v["ergodic"], want.ergodic)
    expect("convergent_on_maximal_states", v["convergent_on_maximal_states"],
           want.convergent_on_maximal_states)
    expect("basis", v["basis"].get("convergent"), want.basis)
    witness = v["witness"]
    got_witness = None if witness is None else (
        witness["level"], tuple(sorted(witness["members"])), witness["cyclicity"]
    )
    expect("witness", got_witness, want.witness)

    evidence = report["orbit_evidence"]
    if model.suite is None:
        expect("orbit evidence", evidence, None)
    elif evidence is None:
        misses.append(f"{model.name}: orbit suite missing")
    else:
        expect("orbit suite verdict", evidence["verdict"], want.convergent)
        expect("orbit suite size", len(evidence["checks"]), len(states) + model.suite)
        if not evidence["agrees"]:
            misses.append(
                f"{model.name}: orbit suite disagrees: {evidence['discrepancies'][:1]}"
            )
    return misses
