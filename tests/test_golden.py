"""``imclim analyze --json --suite 20`` byte for byte against recorded outputs.

``golden/analyze-suite20.json`` holds the exit code, standard output and
standard error of each run, for the running example, the builtin
counterexample and ten seeded models from ``gen``: six planted cyclic ("no")
models and four sparse wide models of 16 to 28 states.  It was recorded at
commit 64c8657, before the gather-max ``apply`` and the periods-only orbit
suite.  A change of float arithmetic that moves a detected period, or any
other field, fails here.  After a deliberate change of output, rewrite the
file with ``PYTHONPATH=src python tests/test_golden.py`` and say why.
"""

import contextlib
import io
import json
import random
import shutil
from pathlib import Path

import gen
from imclim.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "analyze-suite20.json"
DEMO = HERE.parent / "demos" / "running-example.json"


def write_models(directory: Path) -> list[str]:
    """Write the model files into ``directory`` and return every model source, in order."""
    shutil.copy(DEMO, directory / DEMO.name)
    sources = [DEMO.name, "builtin:counterexample-5.1"]
    rng = random.Random(20261019)
    for k in range(10):
        if k < 6:
            op, name = gen.planted_cyclic_operator(rng)[0], f"planted-{k}.json"
        else:
            op, name = gen.random_wide_operator(rng, rng.randint(16, 28), max_pmfs=6), f"wide-{k}.json"
        gen.dump_model(op, directory / name)
        sources.append(name)
    return sources


def analyze(source: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", source, "--json", "--suite", "20"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_analyze_suite_matches_the_golden(tmp_path, monkeypatch):
    # run where the files are, so each report names its model as recorded
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text())
    sources = write_models(tmp_path)
    assert list(golden) == sources
    for source in sources:
        assert analyze(source) == golden[source], source


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        records = {source: analyze(source) for source in write_models(Path(scratch))}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
