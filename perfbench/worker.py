"""One workload process: set up, then analyse planted models in a closed loop.

Started by ``run.py`` in a fresh interpreter per workload, so that set-up
time and peak memory belong to that workload alone.  Set-up is interpreter
start, ``import imclim.cli`` and one untimed warm-up analysis; it is measured
against the parent's monotonic clock reading taken just before the spawn.

Every analysis goes through ``imclim.cli.main(["analyze", <model>, "--json",
...])`` in-process and is checked against the planted answer between timed
calls.  With ``--trace 1`` each model is analysed twice, once traced and once
untraced, alternating which goes first, so the per-layer figures and the
tracing overhead come from the same inputs.  All through the process (but
not inside traced calls) ``calibrate.SpeedLog`` times a fixed kernel on a
timer signal, so that ``run.py`` can scale the set-up and analysis times to a
reference machine speed; the kernels' own time is taken out of every timing.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _analyze(cli, argv: list[str]) -> tuple[int | None, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # any escape is a failed operation
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue().strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/ and docs/")
    parser.add_argument("--models", required=True, help="directory of generated model files")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file the traced run writes its spans to")
    parser.add_argument("--spawned-ns", type=int, required=True,
                        help="time.monotonic_ns() of the parent just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = Path(args.root)
    models_dir = Path(args.models)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    sys.path.insert(0, str(root / "src"))
    import calibrate

    # The speed log runs from here to the end, through set-up and every call;
    # the time its signal handler takes is subtracted from every timing.
    speed = calibrate.SpeedLog()
    speed.start()
    try:
        return _run(args, root, models_dir, speed)
    finally:
        speed.stop()


def _run(args, root: Path, models_dir: Path, speed) -> int:
    import planted
    import imclim.cli as cli

    suite = planted.suite_size(args.workload, args.quick)
    warm_flags = ["--suite", str(suite)] if suite is not None else []
    warm_argv = ["analyze", str(models_dir / "warmup.json"), "--json", *warm_flags]
    warm_result = _analyze(cli, warm_argv)
    ready_ns = time.monotonic_ns()
    setup = {
        "setup_ns": ready_ns - args.spawned_ns - speed.spent_ns,
        "setup_factor": speed.factor(args.spawned_ns / 1e9, ready_ns / 1e9),
    }
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    # Benchmark-side work from here on is outside set-up and outside the timed calls.
    import checker
    from tracer import Tracer, overhead_ratio

    models, warmup, _files = planted.generate(args.workload, args.seed, args.quick)
    validator = checker.load_validator(root)
    failures: list[str] = []
    attempted = 0

    def record(model, result) -> None:
        nonlocal attempted
        attempted += 1
        code, stdout, error = result
        if code is None:
            failures.append(f"{model.name}: {error}")
            return
        misses = checker.check(model, code, stdout, validator)
        if misses:
            failures.append("; ".join(misses[:3]))

    record(warmup, warm_result)

    tracer = Tracer() if args.trace else None
    plain: list[tuple[float, float, int]] = []  # monotonic start and end, duration in ns
    traced_ns: list[int] = []
    budget_ns = int(args.seconds * 1e9)
    start = time.monotonic_ns()
    i = 0
    while i == 0 or time.monotonic_ns() - start < budget_ns:
        model = models[i % len(models)]
        source = model.source if model.source.startswith("builtin:") else str(models_dir / model.source)
        call_argv = ["analyze", source, "--json", *model.flags]
        modes = ("plain",) if tracer is None else (("plain", "traced") if i % 2 == 0 else ("traced", "plain"))
        for mode in modes:
            if mode == "traced":
                # No speed samples inside traced calls, so that spans hold
                # only the program's own work.
                speed.stop()
                tracer.install()
                t0 = time.perf_counter_ns()
                result = tracer.run(model.name, _analyze, cli, call_argv)
                elapsed = time.perf_counter_ns() - t0
                tracer.uninstall()
                speed.start()
                traced_ns.append(elapsed)
            else:
                began = time.monotonic()
                t0, spent = time.perf_counter_ns(), speed.spent_ns
                result = _analyze(cli, call_argv)
                elapsed = time.perf_counter_ns() - t0 - (speed.spent_ns - spent)
                plain.append((began, time.monotonic(), elapsed))
            record(model, result)
        i += 1
    speed.stop()

    plain_ns = [ns for _, _, ns in plain]
    out = {
        **setup,
        "durations_ns": plain_ns,
        "factors": [speed.factor(began, ended) for began, ended, _ in plain],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "distinct_models": len(models),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["layers"]["trace.overhead_ratio"] = overhead_ratio(traced_ns, plain_ns)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
