"""Command-line front end: analyze, orbit, graph and decompose subcommands.

Exit codes of ``analyze``: 0 when the operator is convergent, 2 when it is
not, 3 when the check is inconclusive, 1 on any error.  Set ``IMC_LOG`` to
``debug``, ``info``, ``warning``, ``error`` or ``critical`` for diagnostics
on stderr; any other value means ``warning``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import logging
import os
import sys

import numpy as np

from .decomposition import decompose
from .errors import ImclimError, ModelValidationError
from .modelio import load_model, parse_rational_pair, write_orbit_trace
from .graphs import build_graph, to_dot
from .orbits import OrbitParams, iterate_orbit, replay_orbit
from .report import analyze, decomposition_block, json_text

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGENT = 2
EXIT_INCONCLUSIVE = 3
# the exit code of each ``convergent`` verdict
_EXIT_CODES = {"yes": EXIT_OK, "no": EXIT_NOT_CONVERGENT, "inconclusive": EXIT_INCONCLUSIVE}

log = logging.getLogger("imclim")

# the ``IMC_LOG`` values that select a level; any other value means WARNING
_LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _orbit_params(args) -> OrbitParams:
    return OrbitParams(**{f.name: getattr(args, f.name) for f in dataclasses.fields(OrbitParams)})


# the orbit flags in their ``--help`` order; defaults come from OrbitParams
_ORBIT_FLAG_HELP = {
    "tolerance": "max-norm tolerance for cycle detection",
    "max_iters": "iteration budget",
    "max_period": "largest cycle length scanned for",
    "burn_in": "iterations before detection may fire",
}


def _add_orbit_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per :class:`OrbitParams` field, with the field's default."""
    defaults = {f.name: f.default for f in dataclasses.fields(OrbitParams)}
    for name, text in _ORBIT_FLAG_HELP.items():
        default = defaults[name]
        parser.add_argument("--" + name.replace("_", "-"), type=type(default), default=default,
                            help=f"{text} (default {default})")


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as :class:`ImclimError` instead of exiting with
    status 2, which ``analyze`` reserves for "not convergent"."""

    def error(self, message):
        raise ImclimError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="imclim",
        description="Decide whether all orbits of an upper transition operator converge.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full pipeline with verdicts")
    p_analyze.add_argument("model", help="model file path or builtin:NAME")
    p_analyze.add_argument("--json", action="store_true", help="emit the JSON report")
    p_analyze.add_argument("--suite", type=int, default=None, metavar="N",
                           help="also run the orbit suite with N extra random functions")
    p_analyze.add_argument("--seed", type=int, default=0,
                           help="seed for random suite functions (default 0)")
    _add_orbit_flags(p_analyze)

    p_orbit = sub.add_parser("orbit", help="iterate one function numerically")
    p_orbit.add_argument("model", help="model file path or builtin:NAME")
    p_orbit.add_argument("--function", "-f", required=True,
                         help='start function: "0,1,0", a state label (indicator), or "random:SEED"')
    p_orbit.add_argument("--json", action="store_true", help="emit the result as JSON")
    p_orbit.add_argument("--trace", metavar="CSV", dest="trace_csv",
                         help="write the full orbit trace to this CSV file")
    _add_orbit_flags(p_orbit)

    p_graph = sub.add_parser("graph", help="accessibility graph")
    p_graph.add_argument("model", help="model file path or builtin:NAME")
    p_graph.add_argument("--dot", action="store_true", help="emit DOT text")

    p_dec = sub.add_parser("decompose", help="level-by-level decomposition")
    p_dec.add_argument("model", help="model file path or builtin:NAME")
    p_dec.add_argument("--json", action="store_true", help="emit JSON")

    return parser


def _entry(part: str) -> float:
    """One function entry: a float, or else a rational ``p/q``."""
    try:
        return float(part)
    except ValueError:
        num, den = parse_rational_pair(part, where="function entry")
    try:
        return num / den
    except OverflowError:
        raise ImclimError(f"function entry {part!r} is out of float range") from None


def _parse_function(spec: str, op) -> np.ndarray:
    """The start function ``spec`` names: a label as written, else, stripped,
    a label, ``random:SEED``, comma-separated entries or one lone entry."""
    labels = op.space.positions
    if spec not in labels:  # an exact label names its state, spaces and commas kept
        spec = spec.strip()
    if spec in labels:
        vec = np.zeros(op.n)
        vec[labels[spec]] = 1.0
        return vec
    if spec.startswith("random:"):
        seed = spec.split(":", 1)[1].strip()
        try:
            value = int(seed) if seed.isdecimal() else None
        except ValueError:  # more digits than the interpreter converts to an int
            value = None
        if value is None:
            raise ImclimError(
                f"random function seed must be a non-negative integer, got {seed!r}"
            )
        return np.random.default_rng(value).random(op.n)
    if "," in spec:
        values = [_entry(part.strip()) for part in spec.split(",")]
    else:
        try:
            values = [_entry(spec)]
        except ModelValidationError:  # no number either
            raise ModelValidationError(f"unknown state label '{spec}'") from None
    if len(values) != op.n:
        raise ImclimError(f"function has {len(values)} entries, the model has {op.n} states")
    return np.array(values)


def _set_to_str(labels) -> str:
    return "{" + ", ".join(labels) + "}"


def _cmd_analyze(args) -> int:
    op = load_model(args.model)
    report = analyze(
        op,
        model_name=args.model,
        orbit_params=_orbit_params(args),
        suite_random=args.suite,
        seed=args.seed,
    )
    if args.json:
        print(report.to_json())
    else:
        data = report.to_dict()
        print(f"model: {args.model} ({len(op.space.labels)} states)")
        for cls in data["classes"]:
            flags = []
            if cls["maximal"]:
                flags.append("maximal")
            if cls["closed"]:
                flags.append("closed")
            cyc = cls["cyclicity"]
            flags.append(f"cyclicity {cyc}" if cyc is not None else "acyclic")
            print(f"  class {_set_to_str(cls['members'])}: {', '.join(flags)}")
        part = data["partition"]
        print(f"  maximal states: {_set_to_str(part['maximal_states'])}")
        print(f"  absorbed transients: {_set_to_str(part['absorbed_transients'])}")
        print(f"  unabsorbed transients: {_set_to_str(part['unabsorbed_transients'])}")
        for level in data["decomposition"]["levels"]:
            names = ", ".join(
                _set_to_str(c["members"]) + f" (cyclicity {c['cyclicity']})"
                for c in level["maximal_classes"]
            )
            print(f"  level {level['level']}: maximal {names}")
        v = data["verdicts"]
        print(f"verdict: convergent={v['convergent']} ({v['basis']['convergent']}), "
              f"ergodic={v['ergodic']}, convergent on maximal states={v['convergent_on_maximal_states']}")
        if v["witness"]:
            w = v["witness"]
            print(f"  witness: level {w['level']} class {_set_to_str(w['members'])} "
                  f"cyclicity {w['cyclicity']}")
        for note in v["notes"]:
            print(f"  note: {note}")
        if data["orbit_evidence"]:
            ev = data["orbit_evidence"]
            status = "agrees" if ev["agrees"] else "DISAGREES"
            print(f"orbit suite: {status} ({len(ev['checks'])} functions)")
            for item in ev["discrepancies"]:
                print(f"  discrepancy: {item}")
    return _EXIT_CODES[report.verdict.convergent]


@contextlib.contextmanager
def _trace_file(path: str):
    """The ``--trace`` file, opened before any iteration so a bad path fails
    fast, and written as UTF-8 like the model files, whatever the locale."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            yield handle
    except OSError as exc:
        raise ImclimError(f"cannot write orbit trace {path}: {exc}") from exc
    log.info("trace written to %s", path)


def orbit_payload(result) -> dict:
    """The ``orbit --json`` object of an :class:`~imclim.orbits.OrbitResult`."""
    period = result.detected_period
    return {
        "period": period if period is not None else "none within budget",
        "converged": result.converged,
        "iterations": result.iterations,
        "residual": result.residual,
        "limit_cycle": (
            [[float(v) for v in vec] for vec in result.limit_cycle]
            if result.limit_cycle
            else None
        ),
    }


def _cmd_orbit(args) -> int:
    op = load_model(args.model)
    f = _parse_function(args.function, op)
    path = args.trace_csv
    with _trace_file(path) if path is not None else contextlib.nullcontext() as handle:
        result = iterate_orbit(op, f, _orbit_params(args))
        if handle is not None:
            write_orbit_trace(handle, op.space.labels, replay_orbit(op, f, result.iterations))
    payload = orbit_payload(result)
    if args.json:
        print(json_text(payload))
    else:
        print(f"period: {payload['period']}")
        print(f"iterations: {result.iterations}, residual: {result.residual:.3e}")
        if result.limit_cycle:
            for k, vec in enumerate(result.limit_cycle):
                rendered = ", ".join(f"{v:.9g}" for v in vec)
                print(f"  cycle[{k}]: ({rendered})")
    return EXIT_OK


def _cmd_graph(args) -> int:
    op = load_model(args.model)
    graph = build_graph(op.supports())
    if args.dot:
        sys.stdout.write(to_dot(graph))
    else:
        for x, y in graph.labelled_edges():
            print(f"{x} -> {y}")
    return EXIT_OK


def _cmd_decompose(args) -> int:
    op = load_model(args.model)
    data = decomposition_block(decompose(op))
    if args.json:
        print(json_text(data))
    else:
        print(f"depth: {data['depth']}")
        for level in data["levels"]:
            print(f"level {level['level']}: states {_set_to_str(level['states'])}")
            for cls in level["maximal_classes"]:
                print(f"  maximal {_set_to_str(cls['members'])}, cyclicity {cls['cyclicity']}")
            print(f"  absorbed {_set_to_str(level['absorbed'])}, "
                  f"remaining {_set_to_str(level['remaining'])}")
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "orbit": _cmd_orbit,
    "graph": _cmd_graph,
    "decompose": _cmd_decompose,
}


def main(argv=None) -> int:
    level_name = os.environ.get("IMC_LOG", "warning").upper()
    logging.basicConfig(level=level_name if level_name in _LOG_LEVELS else logging.WARNING)
    try:
        args = build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except ImclimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except UnicodeEncodeError as exc:  # a label the output encoding cannot write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # The reader went away (``| head``).  Point stdout at devnull so the
        # final flush at exit cannot fail again, as the Python docs advise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
