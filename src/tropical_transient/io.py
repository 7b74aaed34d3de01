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
deviations section of reports.  A decimal there becomes its exact token
(1.5 -> "3/2"), and an object or a boolean inside a field's value is
refused.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Union

import numpy as np

from . import _kernels
from .errors import FamilyFileError
from .family import MatrixFamily
from .matrix import TokenTable, TropicalMatrix
from .products import ProductSequence
from .semiring import weight_from_token, weight_token

PathLike = Union[str, Path]

_INT64_MAX = int(np.iinfo(np.int64).max)


# One decoder for every file, as json.loads keeps one for its defaults;
# parse_float keeps decimal literals exact.
_DECODER = json.JSONDecoder(parse_float=Fraction)


def _read_text(path: PathLike) -> str:
    """``Path(path).read_text(encoding="utf-8")``, errors included, read as
    raw bytes and decoded at once: the same universal newlines ("\\r\\n"
    and a lone "\\r" read as "\\n"), without the buffered text layer's
    set-up."""
    with open(path, "rb", buffering=0) as f:
        text = f.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _load_json(path: PathLike):
    text = _read_text(path)
    try:
        if text.startswith("\ufeff"):
            # As json.loads refuses it, before decoding.
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
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
    # Decimals read as Fractions: 5 and 5.0 are integral, true and "5" are not.
    if n is not None and (
        isinstance(n, bool) or not isinstance(n, (int, Fraction)) or n.denominator != 1 or n < 1
    ):
        raise FamilyFileError(f"{path}: 'n' must be a positive integer")
    grids = []
    names = []
    # One table for the whole family: each distinct token is parsed once.
    table = TokenTable(weight_from_token)
    try:
        for mi, raw in enumerate(raw_members, start=1):
            if not isinstance(raw, dict) or "rows" not in raw:
                raise FamilyFileError(
                    f"{path}: member {mi} must be an object with 'rows'"
                )
            name = raw.get("name", f"A{mi}")
            if not isinstance(name, str):
                raise FamilyFileError(f"{path}: member {mi}: 'name' must be a string")
            rows = raw["rows"]
            if not isinstance(rows, list) or not rows:
                raise FamilyFileError(f"{path}: member {name}: 'rows' must be a nonempty list")
            if n is None:
                n = len(rows)
            if len(rows) != n:
                raise FamilyFileError(
                    f"{path}: member {name} has {len(rows)} rows, expected {n}"
                )
            grid = []
            for ri, row in enumerate(rows, start=1):
                if not isinstance(row, list) or len(row) != n:
                    raise FamilyFileError(
                        f"{path}: member {name} row {ri} must have {n} entries"
                    )
                try:
                    grid.append(table.ids(row))
                except ValueError as exc:
                    # Only a failing row pays for finding its first unreadable token.
                    column = next(c for c, tok in enumerate(row, start=1) if not _readable(tok))
                    where = f"{path}: member {name} row {ri} column {column}"
                    raise FamilyFileError(f"{exc}", position=where) from exc
            grids.append(grid)
            names.append(name)
    except FamilyFileError:
        # The members before the failing one are built first, so an entry
        # of theirs too large to store is still the error reported.
        if grids:
            table.matrices(grids)
        raise
    return MatrixFamily(table.matrices(grids)), tuple(names)


def _readable(tok) -> bool:
    try:
        weight_from_token(tok)
    except ValueError:
        return False
    return True


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


# ---------------------------------------------------------------------------
# JSON text, as json.dumps(obj, indent=2) writes it
# ---------------------------------------------------------------------------

# Splits a list of tokens' JSON texts apart: an encoded string holds no
# raw newline.
_TOKEN_TEXTS = json.JSONEncoder(separators=(",\n", ": ")).encode
# A grid's stand-in is this character and the grid's number.  It encodes
# as an escape, so the stand-in's text starts with _MARKER_TEXT.
_MARKER = "\x00"
_MARKER_TEXT = json.dumps(_MARKER)[:-1]


class _TokenGrid(list):
    """A token grid as :func:`_tokens` returns it: the list of row lists,
    which also keeps its distinct tokens (``table``, an object array) and
    the (r, c) grid of indices into it (``index``).

    A grid is never edited after ``_tokens`` returns it: ``json_text``
    writes it from ``table`` and ``index`` without reading its rows.
    """

    __slots__ = ("table", "index")


def _grid_text(grid: _TokenGrid, indent: str) -> str:
    """The grid's text as json.dumps(indent=2) writes a value on a line
    that starts with ``indent``."""
    texts = np.array(_TOKEN_TEXTS(grid.table.tolist())[1:-1].split(",\n"), dtype=object)
    # One gather: each cell is its token's text and the separator that
    # follows it, the row-closing one in the last column.
    row, cell = indent + "  ", indent + "    "
    index = grid.index
    cells = (texts + (",\n" + cell))[index]
    cells[:, -1] = (texts + ("\n" + row + "],\n" + row + "[\n" + cell))[index[:, -1]]
    cells[-1, -1] = texts[index[-1, -1]]
    body = "".join(cells.ravel().tolist())
    return "[\n" + row + "[\n" + cell + body + "\n" + row + "]\n" + indent + "]"


def _marked(o, grids: list):
    """o with each token grid in its dicts, lists and tuples replaced by a
    stand-in string; the grids are appended to ``grids`` in text order."""
    t = type(o)
    if t is _TokenGrid:
        grids.append(o)
        return f"{_MARKER}{len(grids) - 1}"
    if t is dict:
        return {k: _marked(v, grids) for k, v in o.items()}
    if t is list or t is tuple:
        return [_marked(v, grids) for v in o]
    return o


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte.

    ``json.dumps`` writes the object with a stand-in string for each token
    grid from :func:`matrix_tokens`, and each grid's text is put in its
    stand-in's place: one gather from its distinct-value table, trusting
    the ``table`` and ``index`` it carries.  A string of the object's own
    that reads as a stand-in leaves the whole object to ``json.dumps``.
    """
    grids: list = []
    pieces = json.dumps(_marked(obj, grids), indent=2).split(_MARKER_TEXT)
    if len(pieces) != len(grids) + 1:
        return json.dumps(obj, indent=2)
    out = [pieces[0]]
    for k, (grid, piece) in enumerate(zip(grids, pieces[1:])):
        line = out[-1].rpartition("\n")[2]
        out.append(_grid_text(grid, line[:len(line) - len(line.lstrip(" "))]))
        out.append(piece[len(str(k)) + 1:])
    return "".join(out)


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
    """Parse an expected-value file: a flat mapping of report fields.

    Decimals become their exact weight tokens (32.5 -> "65/2", 2.0 -> 2),
    so the file's values are JSON-ready like a report's.  An object or a
    boolean anywhere in a field's value raises :class:`FamilyFileError`.
    """
    data = _load_json(path)
    if not isinstance(data, dict):
        raise FamilyFileError(f"{path}: expected an object of field values")
    return {field: _expected_value(path, field, value) for field, value in data.items()}


def _expected_value(path: PathLike, field: str, value):
    if isinstance(value, list):
        return [_expected_value(path, field, v) for v in value]
    if isinstance(value, Fraction):
        return weight_token(value)
    if isinstance(value, (dict, bool)):
        kind = "an object" if isinstance(value, dict) else "a boolean"
        raise FamilyFileError(f"{path}: field {field!r} holds {kind}, not a weight token")
    return value


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


def _tokens(num: np.ndarray, fin: np.ndarray, den: int) -> list:
    """Tokens of the entries num / den, nested like num: each distinct
    value is formatted once and the token list is indexed by the grid.
    A nonempty 2-D grid comes back as a :class:`_TokenGrid`."""
    # Stored numerators stay below 2**62 in magnitude, so the sentinel
    # cannot collide with a finite entry.
    values, inverse = np.unique(np.where(fin, num, _kernels.MASKED), return_inverse=True)
    finite = values != _kernels.MASKED
    table = np.array(_token_row(*_reduced(values, finite, den)), dtype=object)
    index = inverse.reshape(num.shape)
    tokens = table[index].tolist()
    if num.ndim != 2 or not num.size:
        return tokens
    grid = _TokenGrid(tokens)
    grid.table, grid.index = table, index
    return grid


def matrix_tokens(m: TropicalMatrix) -> list[list]:
    """Matrix entries as JSON-ready tokens, row by row."""
    num, fin = m.scaled(m.denominator)
    return _tokens(num, fin, m.denominator)


def column_tokens(m: TropicalMatrix) -> list:
    """Column-vector entries as JSON-ready tokens."""
    num, fin = m.scaled(m.denominator)
    return _tokens(num[:, 0], fin[:, 0], m.denominator)
