"""Correctness gate for `psl2q verify` reports.

A report passes when it says "pass": true, when every check recorded in the
reference is present and passes (new checks are allowed), when its exact
results equal the reference, and when the paper's invariants hold, checked
here independently of the program: rank q(q-1), maximum family size
q(q-1)/2 and, for q >= 5, exactly (q+1)^2 maximum families.

Timings and `detail` strings are never compared, so a program that renames
the method in a detail text or gets faster still passes.

The reference (reference.json) holds `exact_results` of the reports made at
seed 0 by the commit that introduced this benchmark; none of its fields
depends on the seed.  record_reference.py rebuilds it.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def reference_key(q: int, suite: str) -> str:
    return f"q{q}_{suite}"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _char_key(entry: dict) -> str:
    params = entry["params"]
    return entry["kind"] if params is None else f"{entry['kind']}[{params['exponent']}]"


def exact_results(report: dict) -> dict:
    """The exact, seed-independent results of one report."""
    out = {"checks": [check["name"] for check in report["checks"]]}
    if report["suite"] == "rank":
        cert = report["certificate"]
        for key in ("rank", "expected_rank", "dimension_ledger"):
            out[key] = cert[key]
        out["t_value_exact"] = {_char_key(c): c["t_value_exact"] for c in cert["characters"]}
    elif report["suite"] == "ekr":
        for key in ("max_size", "family_count", "all_cosets", "counterexamples"):
            out[key] = report[key]
    return out


def _invariant_problems(q: int, suite: str, results: dict) -> list[str]:
    problems = []
    if suite == "rank" and results["rank"] != q * (q - 1):
        problems.append(f"rank {results['rank']} is not q(q-1) = {q * (q - 1)}")
    if suite == "ekr":
        if results["max_size"] != q * (q - 1) // 2:
            problems.append(f"max_size {results['max_size']} is not q(q-1)/2 = {q * (q - 1) // 2}")
        if q >= 5 and results["family_count"] != (q + 1) ** 2:
            problems.append(f"family_count {results['family_count']} is not (q+1)^2 = {(q + 1) ** 2}")
    return problems


def report_problems(report: dict, q: int, suite: str, seed: int, reference: dict) -> list[str]:
    """Everything wrong with one report; an empty list means it passes."""
    expected = reference.get(reference_key(q, suite))
    if expected is None:
        return [f"no reference for q={q} {suite}"]
    problems = []
    for key, want in (("q", q), ("suite", suite), ("seed", seed)):
        if report.get(key) != want:
            problems.append(f"report {key} is {report.get(key)!r}, expected {want!r}")
    if report.get("pass") is not True:
        problems.append('report does not say "pass": true')
    try:
        results = exact_results(report)
        passed = {check["name"]: check["pass"] for check in report["checks"]}
    except (KeyError, TypeError) as exc:
        return problems + [f"malformed report: {exc!r}"]
    for name in expected["checks"]:
        if name not in passed:
            problems.append(f"check {name} is missing")
        elif passed[name] is not True:
            problems.append(f"check {name} fails")
    for key, want in expected.items():
        if key != "checks" and results.get(key) != want:
            problems.append(f"{key} differs from the reference")
    return problems + _invariant_problems(q, suite, results)
