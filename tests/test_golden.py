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

``golden/corpus.json`` holds, for each (command, model) pair, the exit code
and the SHA-256 of standard output and of standard error.  The commands are
``analyze`` (text, ``--json`` and ``--json --suite 20``), ``decompose`` (text
and ``--json``), ``graph --dot`` and ``orbit -f <first state> --json``; the
models are the running example, the builtin counterexample, the first
planted files of ``perfbench`` seed 1 (36 of ``structure``, 48 of ``orbit``
and 200 of ``screen``), 30 seeded ``gen`` families, and chains and
staircases of 1 to 20 states.  Every model but the planted files also has
``analyze --suite 20`` (text) and ``graph`` (plain edges).  It was recorded
at commit a9ba88e, before a decomposition level became one state partition;
the entries of those two commands were added at commit 947257f, before a
level's classes moved into ``partition_states`` and a suite became one start
block.  The corpus ends with ``escapes.json``, whose labels need every kind of
JSON escape, under ``analyze --json`` (with and without ``--suite 20``),
``decompose --json`` and two ``orbit --json`` starts that print ``1e+308`` and
``5e-324``; those entries were recorded at commit 7ca3aa0, while every
``--json`` output was still written by ``json.dumps``.

The builtin counterexample's entries of ``analyze --json --suite 20`` (in
the first file and the corpus) and of ``orbit --trace`` were re-recorded
when the engine came to certify the builtin's closed-form limit: 8 suite
checks went from no period to period 1, and the traced orbit of ``b`` ends
on step 137 with period 1 instead of spending its budget of 300.

After a deliberate change of output, rewrite all three files with
``PYTHONPATH=src python tests/test_golden.py`` and say why.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import shutil
import sys
from pathlib import Path

import gen
from imclim.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden" / "analyze-suite20.json"
GOLDEN_TRACE = HERE / "golden" / "orbit-trace.json"
CORPUS = HERE / "golden" / "corpus.json"
PLANTED = HERE.parent / "perfbench" / "planted.py"
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


def load_planted():
    """``perfbench/planted.py``, loaded by path and used as it stands."""
    module = sys.modules.get("perfbench_planted")
    if module is None:
        spec = importlib.util.spec_from_file_location("perfbench_planted", PLANTED)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return module


def write_corpus_models(directory: Path) -> dict[str, tuple[str, bool]]:
    """Write the corpus models into ``directory``; map each source to its
    first state and whether it is a planted benchmark file."""
    shutil.copy(DEMO, directory / DEMO.name)
    sources = {DEMO.name: ("a", False), BUILTIN: ("a", False)}
    planted = load_planted()
    for workload, count in (("structure", 36), ("orbit", 48), ("screen", 200)):
        models, _, files = planted.generate(workload, 1)
        for model in [m for m in models if m.source != BUILTIN][:count]:
            text = files[model.source]
            (directory / model.source).write_text(text)
            sources[model.source] = (json.loads(text)["states"][0], True)
    rng = random.Random(20261020)
    ops = {}
    for k in range(30):
        if k % 3 == 0:
            ops[f"random-{k}.json"] = gen.random_operator(rng, n=rng.randint(1, 7), max_pmfs=4)
        elif k % 3 == 1:
            ops[f"wide-{k}.json"] = gen.random_wide_operator(rng, rng.randint(2, 30), max_pmfs=4)
        else:
            ops[f"cyclic-{k}.json"] = gen.planted_cyclic_operator(rng)[0]
    for n in (1, 2, 5, 20):
        ops[f"chain-{n}.json"] = gen.chain_operator(n, random.Random(n))
        ops[f"staircase-{n}.json"] = gen.staircase_operator(n, random.Random(n))
    for name, op in ops.items():
        gen.dump_model(op, directory / name)
        sources[name] = (op.space.labels[0], False)
    return sources


# a quote, a backslash, a slash, a tab, a newline, Latin-1, CJK and a non-BMP character
ESCAPES = ['say "hi"', "back\\slash", "a/b", "tab\there", "new\nline", "\u00e9", "\u4e2d\u6587",
           "\U0001d11e"]


def escapes_operator():
    """Eight states labelled ``ESCAPES``: a period-2 class, two aperiodic maximal
    classes, an absorbed transient and a second level."""
    q, b, s, t, n, e, c, g = ESCAPES
    return gen.build(ESCAPES, {
        q: [{b: 1}], b: [{q: 1}],
        s: [{s: 1}],
        t: [{t: "1/2", q: "1/2"}, {s: 1}],
        n: [{n: 1}, {e: "1/3", n: "2/3"}],
        e: [{n: 1}, {e: 1}],
        c: [{c: 1}, {g: 1}],
        g: [{g: "1/2", c: "1/2"}, {n: 1}],
    })


def escapes_commands(source: str) -> list[list[str]]:
    return [
        ["analyze", source, "--json"],
        ["analyze", source, "--json", "--suite", "20"],
        ["decompose", source, "--json"],
        ["orbit", source, "-f", "1e308,5e-324,1e308,5e-324,0,0,0,0", "--json"],
        ["orbit", source, "-f", "5e-324,1e308,-1e308,0,5e-324,0,1e308,0", "--json"],
    ]


def corpus_commands(source: str, first: str, planted: bool) -> list[list[str]]:
    commands = [
        ["analyze", source],
        ["analyze", source, "--json"],
        ["analyze", source, "--json", "--suite", "20"],
        ["decompose", source],
        ["decompose", source, "--json"],
        ["graph", source, "--dot"],
        ["orbit", source, "-f", first, "--json"],
    ]
    if not planted:  # the text suite lines and the plain edge list
        commands += [["analyze", source, "--suite", "20"], ["graph", source]]
    return commands


def digest(argv: list[str]) -> list:
    record = run(argv)
    return [record["exit"]] + [
        hashlib.sha256(record[key].encode()).hexdigest() for key in ("stdout", "stderr")
    ]


def corpus(directory: Path):
    """Each corpus entry's key and argument list, in order."""
    for source, (first, planted) in write_corpus_models(directory).items():
        for argv in corpus_commands(source, first, planted):
            yield " ".join(argv), argv
    gen.dump_model(escapes_operator(), directory / "escapes.json")
    for argv in escapes_commands("escapes.json"):
        yield " ".join(argv), argv


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


def test_the_corpus_matches_its_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(CORPUS.read_text())
    keys = []
    for key, argv in corpus(tmp_path):
        keys.append(key)
        assert digest(argv) == golden.get(key), key
    assert keys == list(golden)


if __name__ == "__main__":
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        sources = write_models(Path(scratch))
        records = {source: analyze(source) for source in sources}
        traces = {source: orbit_trace(source) for source in sources}
        entries = [f"{json.dumps(key)}: {json.dumps(digest(argv))}" for key, argv in corpus(Path(scratch))]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    GOLDEN_TRACE.write_text(json.dumps(traces, indent=1) + "\n")
    CORPUS.write_text("{\n" + ",\n".join(entries) + "\n}\n")
