"""End-to-end analysis pipeline and its JSON-facing report structure.

``analyze`` runs the recursive decomposition, whose first level holds the
graph, classes and state partition of the whole space, and all verdicts, and
packs the outcome into an :class:`AnalysisReport` whose ``to_dict`` output
validates against ``docs/report.schema.json``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from . import __version__
from .decomposition import (
    Decomposition,
    Verdict,
    decide_convergence,
    decompose,
)
from .errors import PreconditionError
from .operators import StateSpace, UpperOperator
from .orbits import (
    OrbitCheck,
    OrbitComparison,
    OrbitParams,
    oracle_compare,
    search_cycle_witness,
)


def _labels(space: StateSpace, members: Iterable[int]) -> list[str]:
    return list(space.labels_of(members))


def decomposition_block(dec: Decomposition) -> dict:
    """The report's ``decomposition`` block: depth and per-level classes, in labels."""
    levels = []
    for level in dec.levels:
        space = level.partition.space
        levels.append({
            "level": level.index,
            "states": sorted(space.labels),
            "maximal_classes": [
                {
                    "members": _labels(space, c.members),
                    "cyclicity": c.cyclicity,
                    "regular": c.is_regular,
                }
                for c in level.classes
                if c.is_maximal
            ],
            "absorbed": _labels(space, level.partition.absorbed_transients),
            "remaining": _labels(space, level.partition.unabsorbed_transients),
        })
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
        level1 = self.decomposition.levels[0]
        graph_block = {
            "states": list(space.labels),
            "edges": sorted(
                [space.labels[x], space.labels[y]] for x, y in level1.graph.edges()
            ),
        }
        classes_block = [
            {
                "members": _labels(space, c.members),
                "maximal": c.is_maximal,
                "closed": c.is_closed,
                "cyclicity": c.cyclicity,
                "regular": c.is_regular,
            }
            for c in level1.classes
        ]
        partition = level1.partition
        partition_block = {
            "maximal_classes": [_labels(space, m) for m in partition.maximal_classes],
            "maximal_states": _labels(space, partition.maximal_states),
            "absorbed_transients": _labels(space, partition.absorbed_transients),
            "unabsorbed_transients": _labels(space, partition.unabsorbed_transients),
            "reach_sequence": [_labels(space, s) for s in partition.reach_sequence],
        }
        verdict = self.verdict
        verdict_block = {
            "convergent": verdict.convergent,
            "ergodic": verdict.ergodic,
            "convergent_on_maximal_states": verdict.convergent_on_xm,
            "finitely_generated": verdict.finitely_generated,
            "basis": dict(verdict.basis),
            "witness": (
                {
                    "level": verdict.witness.level,
                    "members": list(verdict.witness.members),
                    "cyclicity": verdict.witness.cyclicity,
                }
                if verdict.witness
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
            "decomposition": decomposition_block(self.decomposition),
            "verdicts": verdict_block,
            "orbit_evidence": evidence_block,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


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
    Raises :class:`PreconditionError` for a negative ``seed`` or
    ``suite_random`` before any work is done.
    """
    if seed < 0:
        raise PreconditionError(f"the seed must be a non-negative integer, got {seed}")
    if suite_random is not None and suite_random < 0:
        raise PreconditionError(
            f"the number of random suite functions must be >= 0, got {suite_random}"
        )
    dec = decompose(op)
    verdict = decide_convergence(op, dec)
    witness_orbit = None
    if verdict.convergent == "no":
        witness_orbit = search_cycle_witness(verdict.witness.phases)
    evidence = None
    if suite_random is not None:
        evidence = oracle_compare(
            op, verdict, params=orbit_params, extra_random=suite_random, seed=seed
        )
    return AnalysisReport(
        operator=op,
        decomposition=dec,
        verdict=verdict,
        orbit_evidence=evidence,
        witness_orbit=witness_orbit,
        model_name=model_name,
    )
