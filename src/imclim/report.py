"""End-to-end analysis pipeline and its JSON-facing report structure.

``analyze`` runs the recursive decomposition, which keeps, in the model's
indices, the model's accessibility graph and classes, each level's maximal
classes and each state's exit level and join round, and all verdicts, and
packs the outcome into an :class:`AnalysisReport` whose ``to_dict`` output
validates against ``docs/report.schema.json``.  Labels come from the model's
space; :func:`decomposition_block` sorts them once and narrows that list
level by level.  :func:`json_text` writes every ``--json`` output of the
package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable

from . import __version__
from .decomposition import (
    Decomposition,
    Verdict,
    decide_convergence,
    decompose,
)
from .errors import require_count
from .operators import UpperOperator
from .orbits import (
    SEED_RULE,
    SUITE_SIZE_RULE,
    OrbitCheck,
    OrbitComparison,
    OrbitParams,
    oracle_compare,
    search_cycle_witness,
)


def _emit(value, newline: str, out) -> None:
    """Pass the JSON text of ``value`` to ``out`` in pieces; ``newline`` is the
    line break and indent of the line ``value`` starts on."""
    if isinstance(value, str):
        out(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            out(sep + encode_basestring_ascii(key) + ": ")
            _emit(item, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        try:  # a list of strings: escaped and joined without a Python-level loop
            out("[" + inner + sep.join(map(encode_basestring_ascii, value)) + newline + "]")
        except TypeError:
            start = "[" + inner
            for item in value:
                out(start)
                _emit(item, inner, out)
                start = sep
            out(newline + "]")
    elif value is None:
        out("null")
    elif value is True:
        out("true")
    elif value is False:
        out("false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            out("NaN")
        elif math.isinf(value):
            out("Infinity" if value > 0 else "-Infinity")
        else:
            out(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def json_text(value) -> str:
    """``json.dumps(value, indent=2)``, byte for byte, in about half the time.

    ``json.dumps`` with an indent falls back to the standard library's
    pure-Python encoder.  Here a list of strings is escaped and joined in C
    in one call, and only dicts and lists of other values are walked in
    Python.  Scalars are spelled as ``json`` spells them.  Unlike
    ``json.dumps``, a dict key that is not a string raises ``TypeError``,
    as does any value that is not a str, int, float, bool, None, list,
    tuple or dict.
    """
    pieces: list[str] = []
    _emit(value, "\n", pieces.append)
    return "".join(pieces)


def _labels(labels: tuple[str, ...], members: Iterable[int]) -> list[str]:
    return sorted(labels[x] for x in members)


def _reach_labels(dec: Decomposition) -> list[list[str]]:
    """Level 1's reach sets as sorted labels, from one label-sorted list of
    the states that join them."""
    labels = dec.graph.labels
    joined = sorted(
        (labels[x], k) for x, (level, k) in enumerate(zip(dec.exits, dec.rounds)) if level == 1
    )
    last = max(k for _, k in joined)
    return [[label for label, k in joined if k <= limit] for limit in range(last + 1)]


def decomposition_block(dec: Decomposition) -> dict:
    """The report's ``decomposition`` block: depth and per-level classes, in labels.

    The model's states are sorted by label once; each level keeps the part
    of that list it leaves remaining for the next.
    """
    labels, exits, rounds = dec.graph.labels, dec.exits, dec.rounds
    states = sorted(range(len(labels)), key=labels.__getitem__)
    levels = []
    for k, maximal in enumerate(dec.maximal, start=1):
        remaining = [x for x in states if exits[x] > k]
        levels.append({
            "level": k,
            "states": [labels[x] for x in states],
            "maximal_classes": [
                {
                    "members": _labels(labels, c.members),
                    "cyclicity": c.cyclicity,
                    "regular": c.is_regular,
                }
                for c in maximal
            ],
            "absorbed": [labels[x] for x in states if exits[x] == k and rounds[x]],
            "remaining": [labels[x] for x in remaining],
        })
        states = remaining
    return {"depth": dec.depth, "levels": levels}


@dataclass
class AnalysisReport:
    operator: UpperOperator
    decomposition: Decomposition
    verdict: Verdict
    orbit_evidence: OrbitComparison | None = None
    witness_orbit: OrbitCheck | None = None
    model_name: str | None = None

    def to_dict(self) -> dict:
        space = self.operator.space
        dec = self.decomposition
        graph_block = {
            "states": list(space.labels),
            "edges": dec.graph.labelled_edges(),
        }
        classes_block = [
            {
                "members": _labels(space.labels, c.members),
                "maximal": c.is_maximal,
                "closed": c.is_closed,
                "cyclicity": c.cyclicity,
                "regular": c.is_regular,
            }
            for c in dec.classes
        ]
        decomposition = decomposition_block(dec)
        top = decomposition["levels"][0]  # level 1 spans the model's space
        partition_block = {
            "maximal_classes": [c["members"] for c in top["maximal_classes"]],
            "maximal_states": sorted(x for c in top["maximal_classes"] for x in c["members"]),
            "absorbed_transients": top["absorbed"],
            "unabsorbed_transients": top["remaining"],
            "reach_sequence": _reach_labels(dec),
        }
        verdict, witness = self.verdict, self.verdict.witness
        verdict_block = {
            "convergent": verdict.convergent,
            "ergodic": verdict.ergodic,
            "convergent_on_maximal_states": verdict.convergent_on_xm,
            "finitely_generated": self.operator.is_finitely_generated,
            "basis": verdict.basis,
            "witness": (
                {
                    "level": witness.level,
                    "members": _labels(space.labels, witness.info.members),
                    "cyclicity": witness.info.cyclicity,
                }
                if witness
                else None
            ),
            "notes": list(verdict.notes),
        }
        if self.witness_orbit is not None:
            verdict_block["witness_orbit"] = {
                "function": self.witness_orbit.label,
                "period": self.witness_orbit.period,
            }
        evidence_block = None
        if self.orbit_evidence is not None:
            evidence_block = {
                "verdict": self.orbit_evidence.verdict,
                "agrees": self.orbit_evidence.agrees,
                "discrepancies": list(self.orbit_evidence.discrepancies),
                "note": self.orbit_evidence.note,
                "checks": [
                    {
                        "label": c.label,
                        "period": c.period,
                        "converged": c.converged,
                    }
                    for c in self.orbit_evidence.checks
                ],
            }
        return {
            "tool": {"name": "imclim", "version": __version__},
            "model": {
                "name": self.model_name,
                "states": list(space.labels),
                "finitely_generated": self.operator.is_finitely_generated,
            },
            "graph": graph_block,
            "classes": classes_block,
            "partition": partition_block,
            "decomposition": decomposition,
            "verdicts": verdict_block,
            "orbit_evidence": evidence_block,
        }

    def to_json(self) -> str:
        return json_text(self.to_dict())


def analyze(
    op: UpperOperator,
    model_name: str | None = None,
    orbit_params: OrbitParams | None = None,
    suite_random: int | None = None,
    seed: int = 0,
) -> AnalysisReport:
    """Run the full symbolic pipeline, optionally backed by an orbit suite.

    ``suite_random=None`` skips the numerical cross-check entirely; any
    integer (including 0) runs the indicator suite plus that many random
    functions drawn from ``seed``.  A "no" verdict carries the certificate
    of :func:`~imclim.orbits.search_cycle_witness`, which runs no orbit.
    Raises :class:`PreconditionError` before any work is done for a
    ``seed`` or ``suite_random`` that is no integer >= 0 (a ``bool`` is none).
    """
    require_count(seed, 0, SEED_RULE)
    if suite_random is not None:
        require_count(suite_random, 0, SUITE_SIZE_RULE)
    dec = decompose(op)
    verdict = decide_convergence(op, dec)
    witness_orbit = None
    if verdict.convergent == "no":
        witness_orbit = search_cycle_witness(op.space.labels, verdict.witness.info.phases)
    evidence = None
    if suite_random is not None:
        evidence = oracle_compare(
            op, verdict.convergent, params=orbit_params, extra_random=suite_random, seed=seed
        )
    return AnalysisReport(
        operator=op,
        decomposition=dec,
        verdict=verdict,
        orbit_evidence=evidence,
        witness_orbit=witness_orbit,
        model_name=model_name,
    )
