"""Output checks, run outside the timed region.

``check(kind, doc, root)`` returns a list of problems with one parsed CLI
document; an empty list means the output is correct. Schema validation and
the byte-identical comparison across repeats live in ``run.py``.
"""

from __future__ import annotations

import math
from pathlib import Path

from workloads import read_instance

#: The CLI rounds every float to 12 significant digits, so a sum of emitted
#: terms can differ from the emitted total by this share of the magnitudes.
ROUNDING = 1e-11
ODD_TOL = 1e-12
STATEVECTOR_TOL = 1e-9
EXHAUSTIVE_TOL = 1e-10


def _gen(doc, root):
    problems = []
    if doc["derived_d_bound"] > doc["requested_d_bound"]:
        problems.append(f"derived D {doc['derived_d_bound']} > requested {doc['requested_d_bound']}")
    n, clauses = read_instance(root / doc["path"])
    if (n, len(clauses)) != (doc["n"], doc["m"]):
        problems.append(f"file has n={n}, m={len(clauses)}; output says {doc['n']}, {doc['m']}")
    return problems


def _scan(doc, root):
    curve = [p["value"] for p in doc["curve"]]
    k = len(curve) - 1
    problems = [
        f"W(gamma_{r}) + W(gamma_{k - r}) = {curve[r] + curve[k - r]:.3e}"
        for r in range(len(curve))
        if abs(curve[r] + curve[k - r]) > ODD_TOL
    ]
    largest = max(abs(v) for v in curve)
    if doc["best"]["value"] != largest:
        problems.append(f"best.value {doc['best']['value']} != largest |W| {largest}")
    return problems


def _eval(doc, root):
    values = [t["value"] for t in doc["terms"]]
    problems = [f"|term| {v} > 1/2" for v in values if abs(v) > 0.5]
    total = math.fsum(values)
    scale = math.fsum(abs(v) for v in values) + abs(doc["total"])
    if abs(total - doc["total"]) > ROUNDING * scale:
        problems.append(f"total {doc['total']} != fsum of terms {total}")
    return problems


def _eval_sv(doc, root):
    problems = _eval(doc, root)
    difference = doc["statevector"]["difference"]
    if difference > STATEVECTOR_TOL:
        problems.append(f"statevector difference {difference} > {STATEVECTOR_TOL}")
    return problems


def _sample(doc, root):
    problems = []
    _, clauses = read_instance(root / doc["instance"])
    bits = [int(ch) for ch in doc["best_string"]]
    satisfied = sum((bits[a] + bits[b] + bits[c]) % 2 == rhs for a, b, c, rhs in clauses)
    if satisfied != doc["best_satisfied"]:
        problems.append(f"best_satisfied {doc['best_satisfied']} != parity count {satisfied}")
    limit = 5.0 * (doc["m"] / 2.0) / math.sqrt(doc["samples"])
    gap = abs(doc["mean_satisfied"] - doc["predicted_mean"])
    if gap > limit:
        problems.append(f"|mean - predicted| = {gap} > {limit}")
    return problems


def _typical_exact(doc, root):
    problems = [] if doc["method"] == "exhaustive" else [f"method {doc['method']}"]
    gap = abs(doc["mean_w"] - doc["closed_form_mean"])
    if gap > EXHAUSTIVE_TOL:
        problems.append(f"|mean - closed form| = {gap} > {EXHAUSTIVE_TOL}")
    return problems


def _typical_mc(doc, root):
    problems = [] if doc["method"] == "monte-carlo" else [f"method {doc['method']}"]
    gap = abs(doc["mean_w"] - doc["closed_form_mean"])
    limit = max(4.0 * doc["stderr"], 1e-9)
    if gap > limit:
        problems.append(f"|mean - closed form| = {gap} > {limit}")
    if doc["variance"] > doc["variance_bound"]:
        problems.append(f"variance {doc['variance']} > bound {doc['variance_bound']}")
    return problems


CHECKS = {
    "gen": _gen,
    "scan": _scan,
    "eval": _eval,
    "eval_sv": _eval_sv,
    "sample": _sample,
    "typical_exact": _typical_exact,
    "typical_mc": _typical_mc,
}


def check(kind: str, doc: dict, root: Path) -> list[str]:
    """Problems with one command's parsed output; empty when it is correct."""
    try:
        return CHECKS[kind](doc, root)
    except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
        return [f"output not checkable: {exc!r}"]
