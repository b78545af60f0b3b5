"""``imclim analyze`` and ``imclim orbit --trace`` byte for byte against recorded outputs.

Both golden files cover the same twelve model sources: the running example,
the builtin counterexample and ten seeded models from ``gen``, six planted
cyclic ("no") models and four sparse wide models of 16 to 28 states.

``golden/analyze-suite20.json`` holds the exit code, standard output and
standard error of ``analyze --json --suite 20`` on each.  It was recorded at
commit 64c8657, before the gather-max ``apply`` and the periods-only orbit
suite.  A change of float arithmetic that moves a detected period, or any
other field, fails here.

``golden/orbit-trace.json`` holds the same for ``orbit <source> -f <spec>
--trace <file>``, with the SHA-256 of the trace CSV.  It was recorded at
commit 9968885, while the engine still copied every iterate into the
result, before traces were replayed from the start function.

After a deliberate change of output, rewrite both files with
``PYTHONPATH=src python tests/test_golden.py`` and say why.
"""

import contextlib
import hashlib
import io
import json
import random
import shutil
from pathlib import Path

import gen
from imclim.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "analyze-suite20.json"
GOLDEN_TRACE = HERE / "golden" / "orbit-trace.json"
DEMO = HERE.parent / "demos" / "running-example.json"
BUILTIN = "builtin:counterexample-5.1"


def write_models(directory: Path) -> list[str]:
    """Write the model files into ``directory`` and return every model source, in order."""
    shutil.copy(DEMO, directory / DEMO.name)
    sources = [DEMO.name, BUILTIN]
    rng = random.Random(20261019)
    for k in range(10):
        if k < 6:
            op, name = gen.planted_cyclic_operator(rng)[0], f"planted-{k}.json"
        else:
            op, name = gen.random_wide_operator(rng, rng.randint(16, 28), max_pmfs=6), f"wide-{k}.json"
        gen.dump_model(op, directory / name)
        sources.append(name)
    return sources


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def analyze(source: str) -> dict:
    return run(["analyze", source, "--json", "--suite", "20"])


def orbit_trace(source: str) -> dict:
    """``orbit --trace`` on ``source``, into ``trace.csv`` of the working directory."""
    if source == DEMO.name:
        spec = ["-f", "b"]
    elif source == BUILTIN:
        spec = ["-f", "b", "--max-iters", "300"]
    else:
        spec = ["-f", "random:3"]
    record = run(["orbit", source, *spec, "--trace", "trace.csv"])
    record["trace_sha256"] = hashlib.sha256(Path("trace.csv").read_bytes()).hexdigest()
    return record


def test_analyze_suite_matches_the_golden(tmp_path, monkeypatch):
    # run where the files are, so each report names its model as recorded
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    sources = write_models(tmp_path)
    assert list(golden) == sources
    for source in sources:
        assert analyze(source) == golden[source], source


def test_orbit_traces_match_the_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN_TRACE.read_text())
    sources = write_models(tmp_path)
    assert list(golden) == sources
    for source in sources:
        assert orbit_trace(source) == golden[source], source


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        sources = write_models(Path(scratch))
        records = {source: analyze(source) for source in sources}
        traces = {source: orbit_trace(source) for source in sources}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    GOLDEN_TRACE.write_text(json.dumps(traces, indent=1) + "\n")
