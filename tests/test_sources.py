"""Checks on the package sources themselves."""

import ast
import re
from pathlib import Path

import imclim

SRC = Path(imclim.__file__).resolve().parent


def imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_only_the_loader_imports_fractions():
    # exact masses matter once, at load time: the structure and the float
    # evaluation need no rational arithmetic
    users = sorted(p.name for p in SRC.glob("*.py") if "fractions" in imported_modules(p))
    assert users == ["modelio.py"]


def referenced_names(path: Path) -> set[str]:
    """The names a module reads or imports; its own definitions are not references."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_is_used_by_the_package():
    # a helper that only tests use belongs in tests/, not in imclim.__all__
    used = set().union(*(referenced_names(p) for p in SRC.glob("*.py") if p.name != "__init__.py"))
    assert sorted(set(imclim.__all__) - {"__version__"} - used) == []


def test_readme_names_every_public_name():
    # every name in imclim.__all__ appears as code in the README
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`]+`", readme, flags=re.S)
    named = set(re.findall(r"\w+", " ".join(code)))
    assert sorted(set(imclim.__all__) - {"__version__"} - named) == []


def test_every_json_output_goes_through_json_text():
    # json.dumps(..., indent=2) runs the standard library's pure-Python
    # encoder; imclim.report.json_text writes the same bytes in about half the time
    calls = sorted(
        f"{p.name}:{node.lineno}"
        for p in SRC.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps")
        and isinstance(node.value, ast.Name) and node.value.id == "json"
    )
    importers = sorted(p.name for p in SRC.glob("*.py") if "json" in imported_modules(p))
    assert calls == []
    assert importers == ["modelio.py"]  # json.loads reads the model files


def test_no_module_reads_private_attributes_of_other_objects():
    # a private attribute is its own object's business: ``x._name`` is read
    # only through ``self`` or ``cls``; dunders are protocol, not privacy
    reads = sorted(
        f"{p.name}:{node.lineno}"
        for p in SRC.glob("*.py")
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    )
    assert reads == []
