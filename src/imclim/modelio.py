"""Model files, builtin registry lookup and trace export.

Model files are JSON documents::

    {
      "states": ["a", "b"],
      "credal_sets": {
        "a": [ {"a": "1"} ],
        "b": [ {"a": "1/2", "b": "1/2"}, {"b": "1"} ]
      }
    }

Probabilities are strings -- ``"1/4"``, ``"0.25"`` or ``"1"`` -- so that the
model stays exact; bare JSON numbers are rejected because binary floats would
contaminate the rational arithmetic.  Omitted targets carry mass zero, and a
key listed twice in one object (a state under ``credal_sets``, a target in a
pmf) is an error rather than silently overwritten.
Closed-form operators are addressed by registry name, e.g.
``builtin:counterexample-5.1``.

Loading is integer arithmetic throughout: :func:`parse_rational_pair` reads
each distinct mass string of a document once into its reduced
``(numerator, denominator)`` pair, and :func:`parse_model` checks every pmf's
signs and exact sum on those integers, drops duplicate pmfs and orders the
rest, so a model is validated exactly without building a ``Fraction`` per
mass.  This module is the only one that uses ``fractions``: everything
downstream of loading needs no exact arithmetic.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ModelValidationError
from .operators import BUILTIN_OPERATORS, CredalOperator, StateSpace, UpperOperator

RATIONAL_HINT = 'write probabilities as strings like "1/4", "0.25" or "1"'

#: Largest decimal exponent, in magnitude, a rational string may carry.
#: ``Fraction`` expands the exponent into an exact power of ten, which for
#: ``"1e-999999999"`` would take hours and gigabytes, so larger ones are
#: refused before it runs.
MAX_DECIMAL_EXPONENT = 10_000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\Z")  # \d, as in Fraction: any Unicode digit


def parse_rational_pair(value, where: str = "value") -> tuple[int, int]:
    """Parse a rational string into its reduced ``(numerator, denominator)`` pair.

    The denominator is positive, so two strings give the same pair exactly
    when they spell the same rational.  ASCII ``"p"`` and ``"p/q"`` are read
    with ``int`` alone; every other spelling (signs, whitespace, decimals,
    exponents, underscores, other Unicode digits, a zero denominator) goes
    through ``Fraction``, after the :data:`MAX_DECIMAL_EXPONENT` check.
    """
    if isinstance(value, str) and value.isascii():
        num, slash, den = value.partition("/")
        if num.isdigit() and (den.isdigit() or not slash):
            try:
                p, q = int(num), int(den or 1)
            except ValueError:  # more digits than int converts; Fraction decides
                pass
            else:
                if q:
                    g = gcd(p, q)
                    return p // g, q // g
    exact = _parse_fraction(value, where)
    return exact.numerator, exact.denominator


def _parse_fraction(value, where: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, str):
        raise ModelValidationError(
            f"{where}: expected a rational string, got {value!r}; {RATIONAL_HINT}"
        )
    text = value.strip()
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent.group(1).replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ModelValidationError(
                f"{where}: the decimal exponent of a rational may be at most "
                f"{MAX_DECIMAL_EXPONENT} in magnitude; {RATIONAL_HINT}"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelValidationError(
            f"{where}: cannot parse {value!r} as a rational; {RATIONAL_HINT}"
        ) from exc


def parse_model(data) -> CredalOperator:
    """Build an operator from a decoded model document.

    Every mass is parsed first, in document order.  Then one pass validates
    the model, raising the first error in this order: credal sets given for
    unknown states, then per state (in ``"states"`` order) a missing or
    empty set, and per pmf unknown targets, negative masses and a sum other
    than one.  Each pmf becomes ascending ``(index, numerator, denominator)``
    triples of its non-zero masses; duplicate pmfs of a state are dropped and
    the rest put in the order of their dense mass vectors.
    """
    if not isinstance(data, Mapping):
        raise ModelValidationError("the model document must be a JSON object")
    states = data.get("states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ModelValidationError('"states" must be a list of state labels')
    raw_sets = data.get("credal_sets")
    if not isinstance(raw_sets, Mapping):
        raise ModelValidationError('"credal_sets" must be an object keyed by state label')
    pairs: dict[str, tuple[int, int]] = {}  # each distinct mass string, parsed once
    for label, pmf_list in raw_sets.items():
        if not isinstance(pmf_list, list):
            raise ModelValidationError(
                f'credal set for state "{label}" must be a list of pmf objects'
            )
        for k, entry in enumerate(pmf_list):
            if not isinstance(entry, Mapping):
                raise ModelValidationError(
                    f'pmf #{k} for state "{label}" must be an object mapping states to rationals'
                )
            for target, mass in entry.items():
                if isinstance(mass, str) and mass in pairs:
                    continue
                try:
                    pairs[mass] = parse_rational_pair(mass)
                except ModelValidationError:
                    # fails again, now naming the mass's place; formatted only here
                    parse_rational_pair(mass, where=f'credal_sets["{label}"][{k}]["{target}"]')
                    raise

    space = StateSpace(tuple(states))
    unknown = sorted(set(raw_sets) - set(space.labels))
    if unknown:
        raise ModelValidationError(f"credal sets given for unknown states: {unknown}")
    index = space.positions
    per_state = []
    for label in space.labels:
        raw = raw_sets.get(label)
        if raw is None:
            raise ModelValidationError(f"no credal set for state '{label}'")
        if not raw:
            raise ModelValidationError(f"empty credal set for state '{label}'")
        pmfs = set()
        for k, entry in enumerate(raw):
            if not entry.keys() <= index.keys():
                bad = sorted(y for y in entry if y not in index)
                raise ModelValidationError(
                    f"pmf #{k} for state '{label}' assigns mass to unknown states {bad}"
                )
            triples = sorted([(index[y], *pairs[mass]) for y, mass in entry.items()])
            problem = _mass_problem(triples)
            if problem:
                raise ModelValidationError(f"pmf #{k} for state '{label}': {problem}")
            pmfs.add(tuple([t for t in triples if t[1]]))
        per_state.append(tuple(sorted(pmfs, key=cmp_to_key(_dense_cmp))))
    return CredalOperator(space, tuple(per_state))


def _mass_problem(triples: list[tuple[int, int, int]]) -> str | None:
    # Signs on the numerators, then the sum as one integer sum over the least
    # common denominator; None for a pmf.
    negative = [i for i, num, _ in triples if num < 0]
    if negative:
        return f"negative mass at positions {negative}"
    common = lcm(*[den for _, _, den in triples])
    total = sum([num * (common // den) for _, num, den in triples])
    if total == common:
        return None
    try:
        text = str(Fraction(total, common))
    except ValueError:  # more digits than the interpreter converts to text
        text = "a rational too long to print"
    return f"masses sum to {text}, expected exactly 1"


def _dense_cmp(p, q) -> int:
    # Sorts pmfs like their dense mass vectors: a pmf whose first differing
    # entry is larger comes later, and mass at a lower index is the larger entry.
    for (i, a, b), (j, c, d) in zip(p, q):
        if i != j:
            return 1 if i < j else -1
        if a * d != c * b:
            return -1 if a * d < c * b else 1
    return len(p) - len(q)


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    data = dict(pairs)
    if len(data) < len(pairs):
        dupes = sorted(k for k, count in Counter(k for k, _ in pairs).items() if count > 1)
        raise ModelValidationError(f"duplicate keys in one JSON object: {dupes}")
    return data


def load_model(source: str | Path) -> UpperOperator:
    """Load an operator from a model file path or a ``builtin:`` registry name."""
    name = str(source)
    if name.startswith("builtin:"):
        factory = BUILTIN_OPERATORS.get(name)
        if factory is None:
            known = ", ".join(sorted(BUILTIN_OPERATORS))
            raise ModelValidationError(f"unknown builtin operator '{name}'; known: {known}")
        return factory()
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8")  # RFC 8259: JSON is UTF-8
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelValidationError(f"cannot read model file {path}: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ModelValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ModelValidationError(f"{path}: JSON nested too deeply to parse") from exc
    except ModelValidationError as exc:
        raise ModelValidationError(f"{path}: {exc}") from exc
    except ValueError as exc:  # the decoder's own limits, e.g. on the digits of an integer
        raise ModelValidationError(f"{path}: cannot decode JSON: {exc}") from exc
    try:
        return parse_model(data)
    except ModelValidationError as exc:
        raise ModelValidationError(f"{path}: {exc}") from exc


def write_orbit_trace(
    handle: IO[str], labels: Sequence[str], trace: Iterable[np.ndarray]
) -> None:
    """Stream an orbit trace as CSV to the writable text ``handle`` (opened with
    ``newline=""``): one row per iterate as ``trace`` yields it, one column per state."""
    writer = csv.writer(handle)
    writer.writerow(["iteration", *labels])
    for i, vec in enumerate(trace):
        writer.writerow([i, *(repr(float(v)) for v in vec)])
