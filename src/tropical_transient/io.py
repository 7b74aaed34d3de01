"""Reading and writing family, sequence and expected-value files.

All numeric content round-trips exactly: weights serialize as JSON
integers or strings ("p/q", decimals, "-inf"), and floats appearing in
files are parsed as exact decimal literals (never binary floats).

Family file layout::

    {
      "n": 5,
      "members": [
        {"name": "A1", "rows": [[0, -4, "-inf", ...], ...]},
        ...
      ]
    }

Sequence files are JSON arrays of 1-based member indices, or an object
{"indices": [...]}.  Expected-value files map report field names to
scalars, vectors or matrices in the same token syntax; they drive the
deviations section of reports.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Union

import numpy as np

from .errors import FamilyFileError
from .family import MatrixFamily
from .matrix import TropicalMatrix
from .products import ProductSequence
from .semiring import Weight, weight_from_token

PathLike = Union[str, Path]

_INT64_MAX = int(np.iinfo(np.int64).max)


def _load_json(path: PathLike):
    text = Path(path).read_text(encoding="utf-8")
    try:
        # parse_float keeps decimal literals exact.
        return json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        raise FamilyFileError(
            f"{path}: invalid JSON: {exc.msg}", position=f"line {exc.lineno}"
        ) from exc


def load_family(path: PathLike) -> tuple[MatrixFamily, tuple[str, ...]]:
    """Parse a family file; returns the family and the member names."""
    data = _load_json(path)
    if not isinstance(data, dict) or "members" not in data:
        raise FamilyFileError(f"{path}: expected an object with a 'members' list")
    raw_members = data["members"]
    if not isinstance(raw_members, list) or not raw_members:
        raise FamilyFileError(f"{path}: 'members' must be a nonempty list")
    n = data.get("n")
    members = []
    names = []
    for mi, raw in enumerate(raw_members, start=1):
        if not isinstance(raw, dict) or "rows" not in raw:
            raise FamilyFileError(
                f"{path}: member {mi} must be an object with 'rows'"
            )
        name = raw.get("name", f"A{mi}")
        rows = raw["rows"]
        if not isinstance(rows, list) or not rows:
            raise FamilyFileError(f"{path}: member {name}: 'rows' must be a nonempty list")
        if n is None:
            n = len(rows)
        if len(rows) != n:
            raise FamilyFileError(
                f"{path}: member {name} has {len(rows)} rows, expected {n}"
            )
        weights = []
        for ri, row in enumerate(rows, start=1):
            if not isinstance(row, list) or len(row) != n:
                raise FamilyFileError(
                    f"{path}: member {name} row {ri} must have {n} entries"
                )
            parsed: list[Weight] = []
            try:
                for tok in row:
                    parsed.append(weight_from_token(tok))
            except ValueError as exc:
                # The position is only formatted for the token that failed.
                where = f"{path}: member {name} row {ri} column {len(parsed) + 1}"
                raise FamilyFileError(f"{exc}", position=where) from exc
            weights.append(parsed)
        members.append(TropicalMatrix.from_rows(weights))
        names.append(str(name))
    return MatrixFamily(members), tuple(names)


def family_to_dict(family: MatrixFamily, names=None) -> dict:
    """Serialize a family to the file layout (exact tokens)."""
    if names is None:
        names = [f"A{i}" for i in range(1, family.member_count + 1)]
    return {
        "n": family.size,
        "members": [
            {"name": name, "rows": matrix_tokens(member)}
            for name, member in zip(names, family.members)
        ],
    }


def save_family(family: MatrixFamily, path: PathLike, names=None) -> None:
    Path(path).write_text(
        json.dumps(family_to_dict(family, names), indent=2) + "\n", encoding="utf-8"
    )


def load_sequence(path: PathLike) -> ProductSequence:
    """Parse a sequence file into a ProductSequence (indices unchecked)."""
    data = _load_json(path)
    if isinstance(data, dict) and "indices" in data:
        data = data["indices"]
    if not isinstance(data, list) or not data:
        raise FamilyFileError(f"{path}: expected a nonempty array of member indices")
    indices = []
    for pos, tok in enumerate(data, start=1):
        if isinstance(tok, bool) or not isinstance(tok, int):
            raise FamilyFileError(
                f"{path}: sequence entries must be integers", position=f"entry {pos}"
            )
        indices.append(tok)
    return ProductSequence(tuple(indices))


def load_expected(path: PathLike) -> dict:
    """Parse an expected-value file: a flat mapping of report fields."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise FamilyFileError(f"{path}: expected an object of field values")
    return data


def _reduced(num: np.ndarray, fin: np.ndarray, den: int) -> tuple[list, list, list]:
    """Numerators, denominators and finiteness of num / den in lowest
    terms, as nested Python lists."""
    if den > _INT64_MAX:
        num = num.astype(object)
    g = np.gcd(num, den)
    return (num // g).tolist(), (den // g).tolist(), fin.tolist()


def _token_row(p: list, q: list, fin: list) -> list:
    # The tokens of semiring.weight_token, from reduced pairs.
    return [(a if b == 1 else f"{a}/{b}") if f else "-inf" for a, b, f in zip(p, q, fin)]


def matrix_tokens(m: TropicalMatrix) -> list[list]:
    """Matrix entries as JSON-ready tokens, row by row."""
    num, fin = m.scaled(m.denominator)
    return [_token_row(*row) for row in zip(*_reduced(num, fin, m.denominator))]


def column_tokens(m: TropicalMatrix) -> list:
    """Column-vector entries as JSON-ready tokens."""
    num, fin = m.scaled(m.denominator)
    return _token_row(*_reduced(num[:, 0], fin[:, 0], m.denominator))
