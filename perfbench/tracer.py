"""Spans around imclim's public functions, recorded from outside the package.

:meth:`Tracer.install` replaces each traced function wherever an imclim
module holds a reference to it (``cli`` imports ``load_model`` and
``analyze`` by name, ``report`` imports ``decompose``, and so on), and wraps
the methods ``restrict``, ``apply`` and ``apply_exact`` of every operator
class.  :meth:`Tracer.uninstall` puts the originals back, so untraced calls
run the package exactly as shipped.

A span records its name, start, end, parent span, model id and the analysis
it belongs to.  ``apply`` and ``apply_exact`` run up to millions of times per
analysis, so they are counted and timed per analysis instead of kept as
spans; their time still counts as child time of the span that called them,
which keeps every layer's self time exact.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter

# Traced public functions and the layer (module) each belongs to.
FUNCTIONS = {
    "load_model": "modelio",
    "build_graph": "graphs",
    "communication_classes": "graphs",
    "partition_states": "reachability",
    "decompose": "decomposition",
    "decide_convergence": "decomposition",
    "iterate_orbit": "orbits",
    "oracle_compare": "orbits",
    "search_cycle_witness": "orbits",
    "analyze": "report",
}
COUNTED = ("apply", "apply_exact")
LAYERS = (
    "modelio", "operators", "graphs", "reachability", "restriction",
    "decomposition", "orbits", "report", "cli",
)
LAYER_OF = {**FUNCTIONS, "restrict": "restriction", "to_json": "report", "main": "cli"}

def stop_reason(result) -> str:
    """Why ``iterate_orbit`` ended, read off its ``OrbitResult``.

    The engine ends a run on a certified period 1, on an exact repeat
    (some residual exactly zero) or when the budget is spent.  A period-1
    certificate with a non-zero residual came from the sustained-residual
    rule; a run that ended early otherwise ended on an exact repeat.
    """
    if result.detected_period is None:
        return "budget"
    sustained = result.detected_period == 1 and result.residual > 0
    if result.iterations < result.params.max_iters:
        return "sustained" if sustained else "exact"
    if result.residual == 0:
        return "exact"
    return "sustained" if sustained else "budget"


def _info(name, result):
    if name == "build_graph":
        return {"edges": int(result.adjacency.sum()), "n": result.n}
    if name == "partition_states":
        return {"rounds": len(result.reach_sequence)}
    if name == "decompose":
        return {"levels": result.depth}
    if name == "iterate_orbit":
        return {"iterations": result.iterations, "stop": stop_reason(result)}
    if name == "to_json":
        return {"bytes": len(result)}
    return None


class Tracer:
    def __init__(self):
        # [id, name, start_ns, end_ns, parent, model, call, child_ns, info]
        self.spans: list[list] = []
        self.calls: dict[int, dict[str, list[int]]] = {}  # counted methods per analysis
        self._stack: list[int] = []
        self._model: str | None = None
        self._call = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter_ns(), 0, parent,
                           self._model, self._call, 0, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        end = time.perf_counter_ns()
        span = self.spans[sid]
        span[3] = end
        self._stack.pop()
        if self._stack:
            self.spans[self._stack[-1]][7] += end - span[2]

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.spans[sid][8] = _info(name, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                tally = self.calls[self._call][name]
                tally[0] += 1
                tally[1] += elapsed
                if self._stack:
                    self.spans[self._stack[-1]][7] += elapsed

        return wrapper

    def run(self, model: str, fn, *args):
        """Call ``fn(*args)`` as one traced analysis of ``model``."""
        self._call += 1
        self._model = model
        self.calls[self._call] = {name: [0, 0] for name in COUNTED}
        sid = self._open("main")
        try:
            return fn(*args)
        finally:
            self._close(sid)

    # -- patching ----------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        from imclim.operators import UpperOperator
        from imclim.report import AnalysisReport

        modules = [m for name, m in sys.modules.items() if name.startswith("imclim")]
        for name, layer in FUNCTIONS.items():
            original = vars(sys.modules[f"imclim.{layer}"])[name]  # layer = home module
            wrapper = self._span(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for cls in UpperOperator.__subclasses__():
            if "restrict" in vars(cls):
                self._patch(cls, "restrict", self._span("restrict", vars(cls)["restrict"]))
            for name in COUNTED:
                if name in vars(cls):
                    self._patch(cls, name, self._counted(name, vars(cls)[name]))
        self._patch(AnalysisReport, "to_json", self._span("to_json", AnalysisReport.to_json))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------
    def write(self, path) -> None:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "model", "call", "child_ns", "info")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
            for call, tallies in self.calls.items():
                handle.write(json.dumps({"call": call, "counted": tallies}) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: means per analysis, time shares by self time."""
        n = len(self.calls)
        incl, self_ns, spans, total = Counter(), Counter(), Counter(), Counter()
        first_graph: set[int] = set()
        wall = 0
        for _sid, name, start, end, parent, _model, call, child, info in self.spans:
            incl[name] += end - start
            self_ns[name] += end - start - child
            spans[name] += 1
            if parent is None:
                wall += end - start
            if info is None:  # a span without a result, or one that raised
                continue
            if name == "build_graph" and call not in first_graph:
                first_graph.add(call)  # the full model's graph, not a level's
                total["graphs.edges"] += info["edges"]
            elif name == "partition_states":
                total["reachability.reach_rounds"] += info["rounds"]
            elif name == "decompose":
                total["decomposition.levels"] += info["levels"]
            elif name == "iterate_orbit":
                total["orbits.iterations"] += info["iterations"]
                total[f"orbits.stop_{info['stop']}"] += 1
            elif name == "to_json":
                total["report.json_bytes"] += info["bytes"]
        counted = {name: Counter() for name in COUNTED}
        for tallies in self.calls.values():
            for name, (calls, ns) in tallies.items():
                counted[name].update(calls=calls, ns=ns)
        exact, floats = counted["apply_exact"], counted["apply"]
        layer_ns = Counter()
        for name, ns in self_ns.items():
            layer_ns[LAYER_OF[name]] += ns
        layer_ns["operators"] = exact["ns"] + floats["ns"]
        iterations = total["orbits.iterations"]

        def seconds(ns):
            return ns / 1e9 / n

        out = {
            "modelio.load_s": seconds(incl["load_model"]),
            "operators.exact_evals": exact["calls"] / n,
            "operators.exact_eval_s": seconds(exact["ns"]),
            "operators.float_applies": floats["calls"] / n,
            "operators.apply_us": floats["ns"] / 1e3 / floats["calls"] if floats["calls"] else 0.0,
            "graphs.build_graph_s": seconds(incl["build_graph"]),
            "graphs.build_graph_calls": spans["build_graph"] / n,
            "graphs.classes_s": seconds(incl["communication_classes"]),
            "graphs.edges": total["graphs.edges"] / n,
            "reachability.partition_s": seconds(incl["partition_states"]),
            "reachability.reach_rounds": total["reachability.reach_rounds"] / n,
            "restriction.restrict_s": seconds(incl["restrict"]),
            "restriction.restrict_calls": spans["restrict"] / n,
            "decomposition.decompose_s": seconds(incl["decompose"]),
            "decomposition.levels": total["decomposition.levels"] / n,
            "decomposition.decide_s": seconds(incl["decide_convergence"]),
            "orbits.iterate_s": seconds(incl["iterate_orbit"]),
            "orbits.iterations": iterations / n,
            "orbits.step_us": incl["iterate_orbit"] / 1e3 / iterations if iterations else 0.0,
            "orbits.stop_exact": total["orbits.stop_exact"] / n,
            "orbits.stop_sustained": total["orbits.stop_sustained"] / n,
            "orbits.stop_budget": total["orbits.stop_budget"] / n,
            "orbits.suite_s": seconds(incl["oracle_compare"]),
            "orbits.witness_s": seconds(incl["search_cycle_witness"]),
            "report.analyze_self_s": seconds(self_ns["analyze"]),
            "report.to_json_s": seconds(incl["to_json"]),
            "report.json_bytes": total["report.json_bytes"] / n,
            "cli.self_s": seconds(self_ns["main"]),
        }
        for layer in LAYERS:
            out[f"share.{layer}"] = layer_ns[layer] / wall if wall else 0.0
        return out


def overhead_ratio(traced_ns: list[int], plain_ns: list[int]) -> float:
    return statistics.median(traced_ns) / statistics.median(plain_ns)
