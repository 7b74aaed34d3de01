"""Output checks for the benchmark ops.

Each op declares what its output must satisfy in an ``expect`` mapping;
:func:`report_errors` returns one message per violated expectation.  The
rank-one confirmations use a small exact max-plus fold over ``Fraction``
written here, independent of the package's integer kernels.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

COUNTEREXAMPLES_CONFIRMED = 4


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- exact reference fold ---------------------------------------------------

def _weight(tok):
    # None stands for -inf.
    return None if tok == "-inf" else Fraction(tok)


def load_members(path) -> list[list[list]]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return [[[_weight(t) for t in row] for row in m["rows"]] for m in data["members"]]


def maxplus_product(a, b):
    n, inner, c = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(c):
            best = None
            for k in range(inner):
                if a[i][k] is not None and b[k][j] is not None:
                    s = a[i][k] + b[k][j]
                    if best is None or s > best:
                        best = s
            row.append(best)
        out.append(row)
    return out


def fraction_fold(members, indices):
    product = members[indices[0] - 1]
    for idx in indices[1:]:
        product = maxplus_product(product, members[idx - 1])
    return product


def is_rank_one(p) -> bool:
    """Whether p = x (x) y^T for some vectors x, y (pivot on any finite entry)."""
    finite = [(i, j) for i, row in enumerate(p) for j, w in enumerate(row) if w is not None]
    if not finite:
        return False
    r, c = finite[0]
    for i, row in enumerate(p):
        for j, w in enumerate(row):
            if p[i][c] is None or p[r][j] is None:
                expected = None
            else:
                expected = p[i][c] + p[r][j] - p[r][c]
            if w != expected:
                return False
    return True


# -- report checks ----------------------------------------------------------

def _transient_errors(section, expect) -> list[str]:
    errors = []
    if section["examined"] != expect["examined"]:
        errors.append(f"examined {section['examined']}, expected {expect['examined']}")
    listed = section["counterexamples"]
    rng = random.Random(expect["sample_seed"])
    picked = rng.sample(listed, min(COUNTEREXAMPLES_CONFIRMED, len(listed)))
    members = load_members(expect["family"])
    for cx in picked:
        if len(cx["indices"]) != cx["length"]:
            errors.append(f"counterexample {cx} has the wrong length")
        elif is_rank_one(fraction_fold(members, cx["indices"])):
            errors.append(f"counterexample {cx['indices']} is rank-one")
    return errors


def _lemma_errors(section) -> list[str]:
    errors = [] if section["all_hold"] else ["lemma checks: all_hold is false"]
    for name, check in section.items():
        if name != "all_hold" and not check["holds"]:
            errors.append(f"lemma check {name} fails")
    return errors


def report_errors(report: dict, expect: dict) -> list[str]:
    errors = []
    if expect.get("validation_passed") and not report["validation"]["passed"]:
        errors.append("family validation failed")
    if "bounds" in expect:
        for kind, value in expect["bounds"].items():
            got = report["bounds"][kind]["overall"]
            if got != value:
                errors.append(f"{kind} bound {got}, expected {value}")
    if expect.get("implicit_le_explicit"):
        bounds = report["bounds"]
        if Fraction(bounds["implicit"]["overall"]) > Fraction(bounds["explicit"]["overall"]):
            errors.append("implicit bound above explicit bound")
    if expect.get("rank_one"):
        check = report["check"]
        if not (check["rank_one"] and check["consistent"]):
            errors.append("product is not rank-one or disagrees with the walk DP")
    if expect.get("lemmas"):
        errors.extend(_lemma_errors(report["lemma_checks"]))
    if "transient" in expect:
        errors.extend(_transient_errors(report["transient"], expect["transient"]))
    return errors


class Checker:
    """Checks op outputs; outputs already checked are not checked again.

    ``digests`` maps op names to committed exit codes and stdout digests;
    they apply to every op on the default seed and to unseeded ops on any
    seed.  ``None`` skips the digest comparison (when recording them).
    """

    def __init__(self, schema_text: str, digests: dict | None, default_seed: bool):
        import jsonschema

        self._validator = jsonschema.Draft202012Validator(json.loads(schema_text))
        self._digests = digests
        self._default_seed = default_seed
        self._seen: dict[tuple, list[str]] = {}

    def errors(self, op, code: int, out: bytes) -> list[str]:
        key = (op.name, code, sha256(out))
        if key not in self._seen:
            self._seen[key] = self._errors(op, code, out)
        return self._seen[key]

    def _errors(self, op, code, out) -> list[str]:
        errors = []
        if code != 0:
            errors.append(f"exit code {code}")
        if self._digests is not None and (self._default_seed or not op.seeded):
            ref = self._digests.get(op.name)
            if ref is None:
                errors.append("no committed digest")
            elif (ref["exit"], ref["stdout_sha256"]) != (code, sha256(out)):
                errors.append("stdout or exit code differs from the committed digest")
        if not op.expect.get("json"):
            return errors if out else errors + ["empty output"]
        try:
            report = json.loads(out)
        except ValueError as exc:
            return errors + [f"output is not JSON: {exc}"]
        if op.expect.get("schema"):
            errors.extend(
                f"schema: {e.message}" for e in self._validator.iter_errors(report)
            )
        try:
            errors.extend(report_errors(report, op.expect))
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"report is missing a field: {exc!r}")
        return errors
