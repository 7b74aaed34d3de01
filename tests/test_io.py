import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from tropical_transient.errors import FamilyFileError
from tropical_transient.io import (
    _load_json,
    _read_text,
    column_tokens,
    family_to_dict,
    load_expected,
    load_family,
    load_sequence,
    matrix_tokens,
)
from tropical_transient.matrix import TropicalMatrix
from tropical_transient.semiring import EPSILON, weight_token


def write(tmp_path, name, payload):
    p = tmp_path / name
    if isinstance(payload, str):
        p.write_text(payload, encoding="utf-8")
    else:
        p.write_text(json.dumps(payload), encoding="utf-8")
    return p


class TestLoadFamily:
    def test_fixture_round_trip(self, tmp_path, family5_loaded):
        family, names = family5_loaded
        out = tmp_path / "family.json"
        oracles.save_family(family, out, names)
        again, again_names = load_family(out)
        assert again_names == names
        assert again.members == family.members

    def test_default_names(self, tmp_path):
        p = write(
            tmp_path,
            "f.json",
            {"members": [{"rows": [[0, -1], [-1, -2]]}, {"rows": [[0, -2], [-3, -1]]}]},
        )
        family, names = load_family(p)
        assert names == ("A1", "A2")
        assert family.size == 2
        assert family.members[0].entry(1, 0) == Fraction(-1)

    def test_token_kinds_parse_exactly(self, tmp_path):
        p = write(
            tmp_path,
            "f.json",
            {"members": [{"rows": [[0, "-1/3"], [0.5, "-inf"]]}]},
        )
        family, _ = load_family(p)
        a = family.members[0]
        assert a.entry(0, 1) == Fraction(-1, 3)
        # decimal literal parsed as an exact rational, not a binary float
        assert a.entry(1, 0) == Fraction(1, 2)
        assert a.entry(1, 1) is EPSILON

    def test_bad_json_reports_line(self, tmp_path):
        p = write(tmp_path, "f.json", '{"members": [\n  {"rows": [[0]]},\n]}')
        with pytest.raises(FamilyFileError) as exc:
            load_family(p)
        assert exc.value.position == "line 3"

    def test_not_an_object(self, tmp_path):
        p = write(tmp_path, "f.json", [1, 2, 3])
        with pytest.raises(FamilyFileError, match="'members'"):
            load_family(p)

    def test_empty_members(self, tmp_path):
        p = write(tmp_path, "f.json", {"members": []})
        with pytest.raises(FamilyFileError, match="nonempty"):
            load_family(p)

    def test_member_not_object(self, tmp_path):
        p = write(tmp_path, "f.json", {"members": [[0, 1]]})
        with pytest.raises(FamilyFileError, match="member 1"):
            load_family(p)

    @pytest.mark.parametrize("name", [None, ["A"], 3, True, {"x": "A"}])
    def test_name_must_be_a_string(self, tmp_path, name):
        # The error names the member by its position, as its name is no string.
        members = [{"rows": [[0]]}, {"name": name, "rows": [[0]]}]
        p = write(tmp_path, "f.json", {"members": members})
        with pytest.raises(FamilyFileError, match="member 2: 'name' must be a string"):
            load_family(p)

    def test_row_count_mismatch_against_declared_n(self, tmp_path):
        p = write(
            tmp_path,
            "f.json",
            {"n": 3, "members": [{"name": "B", "rows": [[0, -1], [-1, 0]]}]},
        )
        with pytest.raises(FamilyFileError, match="member B has 2 rows, expected 3"):
            load_family(p)

    @pytest.mark.parametrize("n", [True, "2", 2.5, 0, -1, [2]])
    def test_n_must_be_a_positive_integer(self, tmp_path, n):
        p = write(tmp_path, "f.json", {"n": n, "members": [{"rows": [[0]]}]})
        with pytest.raises(FamilyFileError, match="'n' must be a positive integer"):
            load_family(p)

    @pytest.mark.parametrize("n", ["2", "2.0"])
    def test_integral_n_is_accepted(self, tmp_path, n):
        # Written as text, so that 2.0 stays a JSON decimal.
        text = f'{{"n": {n}, "members": [{{"rows": [[0, -1], [-1, -2]]}}]}}'
        assert load_family(write(tmp_path, "f.json", text))[0].size == 2

    def test_ragged_row(self, tmp_path):
        p = write(
            tmp_path,
            "f.json",
            {"members": [{"rows": [[0, -1], [-1]]}]},
        )
        with pytest.raises(FamilyFileError, match="row 2 must have 2 entries"):
            load_family(p)

    def test_bad_token_carries_position(self, tmp_path):
        p = write(
            tmp_path,
            "f.json",
            {"members": [{"name": "A1", "rows": [[0, "wat"], [0, 0]]}]},
        )
        with pytest.raises(FamilyFileError) as exc:
            load_family(p)
        assert "member A1 row 1 column 2" in exc.value.position

    def test_bad_token_message_and_position_are_exact(self, tmp_path):
        # A later member and row, so the column counts from the failing row.
        good = [[0, -1], [-1, 0]]
        p = write(
            tmp_path,
            "f.json",
            {"members": [{"name": "A1", "rows": good},
                         {"name": "B", "rows": [[0, -1], [-2, "1/0"]]}]},
        )
        with pytest.raises(FamilyFileError) as exc:
            load_family(p)
        where = f"{p}: member B row 2 column 2"
        assert exc.value.position == where
        assert str(exc.value) == f"unreadable weight token '1/0' (at {where})"
        assert isinstance(exc.value.__cause__, ValueError)

    def test_bad_json_line_counts_every_line_ending(self, tmp_path):
        # Files are read with universal newlines: "\r\n" and a lone "\r"
        # end a line as "\n" does.
        for end in ("\n", "\r\n", "\r"):
            p = tmp_path / "f.json"
            p.write_bytes(end.join(['{"members": [', '  {"rows": [[0]]},', ']}']).encode())
            with pytest.raises(FamilyFileError) as exc:
                load_family(p)
            assert exc.value.position == "line 3"

    def test_an_earlier_member_too_large_to_store_is_reported_first(self, tmp_path):
        # Members are built after the whole file is read, but an entry of
        # member 1 past the storage limit is still reported before a later
        # member's bad token or shape.
        big = [[0, -(1 << 62)], [-1, 0]]
        for later in ([[0, "wat"], [0, 0]], [[0, -1, -2]]):
            p = write(tmp_path, "f.json", {"members": [{"rows": big}, {"rows": later}]})
            with pytest.raises(OverflowError, match="matrix construction"):
                load_family(p)
        p = write(tmp_path, "f.json", {"members": [{"rows": [[0, -1], [-1, 0]]},
                                                   {"rows": [[0, "wat"], [0, 0]]}]})
        with pytest.raises(FamilyFileError, match="unreadable weight token 'wat'"):
            load_family(p)

    def test_second_member_shape_checked_against_first(self, tmp_path):
        p = write(
            tmp_path,
            "f.json",
            {
                "members": [
                    {"rows": [[0, -1], [-1, 0]]},
                    {"rows": [[0, -1, -2], [-1, 0, -2], [-2, -2, 0]]},
                ]
            },
        )
        with pytest.raises(FamilyFileError, match="has 3 rows, expected 2"):
            load_family(p)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=40),
                 st.lists(st.sampled_from([b"\r", b"\n", b"\r\n", b"{}", b"\xff", b"\xc3",
                                           b"\xc3\xa9", b"\xef\xbb\xbf", b"\xed\xa0\x80", b" 1"]),
                          max_size=12).map(b"".join)))
@example(b"\r")
@example(b"{\r}\r\n\n\r\r")
@example(b"\xef\xbb\xbf{}")
@example(b"[1,\r 2]\xff")
def test_read_text_is_path_read_text(tmp_path_factory, data):
    # The family loader's reader returns what Path.read_text(encoding=
    # "utf-8") returns, or raises what it raises, message included.
    p = tmp_path_factory.mktemp("read") / "f.json"
    p.write_bytes(data)
    try:
        want = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        with pytest.raises(UnicodeDecodeError) as got:
            _read_text(p)
        assert str(got.value) == str(exc)
    else:
        assert _read_text(p) == want and _read_text(str(p)) == want


@pytest.mark.parametrize("text", [
    '{"a": [1, 2.5, "-inf"]}', "\ufeff{}", "\ufeff{", "{\n  1: 2}", "[1,\r\n 2,]", "", "  ",
    "\ufeff", "[1e400, -0.0]", "{} {}", "[Infinity]",
])
def test_json_reads_as_json_loads_reads(tmp_path, text):
    # Files decode through one shared decoder; values and errors, the BOM
    # refusal and the line reported included, are json.loads's with exact
    # decimals.
    p = tmp_path / "f.json"
    p.write_bytes(text.encode())
    try:
        want = json.loads(p.read_text(encoding="utf-8"), parse_float=Fraction)
    except json.JSONDecodeError as exc:
        with pytest.raises(FamilyFileError) as got:
            _load_json(p)
        assert str(got.value) == f"{p}: invalid JSON: {exc.msg} (at line {exc.lineno})"
    else:
        assert _load_json(p) == want


class TestLoadSequence:
    def test_bare_array(self, tmp_path):
        p = write(tmp_path, "s.json", [1, 3, 1, 2])
        assert load_sequence(p).indices == (1, 3, 1, 2)

    def test_wrapped_object(self, tmp_path):
        p = write(tmp_path, "s.json", {"indices": [2, 2, 1]})
        assert load_sequence(p).indices == (2, 2, 1)

    def test_fixture_sequence(self, seq44):
        assert len(seq44) == 44
        assert set(seq44.indices) == {1, 2, 3}

    def test_empty_rejected(self, tmp_path):
        p = write(tmp_path, "s.json", [])
        with pytest.raises(FamilyFileError, match="nonempty"):
            load_sequence(p)

    def test_non_integer_entry(self, tmp_path):
        p = write(tmp_path, "s.json", [1, "2", 3])
        with pytest.raises(FamilyFileError) as exc:
            load_sequence(p)
        assert exc.value.position == "entry 2"

    def test_bool_entry_rejected(self, tmp_path):
        p = write(tmp_path, "s.json", [1, True])
        with pytest.raises(FamilyFileError, match="integers"):
            load_sequence(p)


class TestLoadExpected:
    def test_fixture_expected(self, expected5):
        assert expected5["lambda_star"] == "-2/3"
        assert expected5["lambda_star_witness"] == [2, 5, 4]

    def test_decimals_stay_exact(self, tmp_path):
        p = write(tmp_path, "e.json", {"explicit_overall": 32.5})
        assert load_expected(p)["explicit_overall"] == "65/2"

    def test_nested_decimals_become_tokens(self, tmp_path):
        p = write(tmp_path, "e.json", {"alpha": [0, 2.5, 2.0], "gamma": [[-0.25]]})
        got = load_expected(p)
        assert got == {"alpha": [0, "5/2", 2], "gamma": [["-1/4"]]}
        assert type(got["alpha"][2]) is int

    @pytest.mark.parametrize("value", [{"x": 1}, True, [0, [False]], [{"x": 1}]])
    def test_object_or_boolean_rejected(self, tmp_path, value):
        p = write(tmp_path, "e.json", {"description": "strings pass", "alpha": value})
        with pytest.raises(FamilyFileError, match="'alpha' holds"):
            load_expected(p)

    def test_non_object_rejected(self, tmp_path):
        p = write(tmp_path, "e.json", [1, 2])
        with pytest.raises(FamilyFileError, match="object"):
            load_expected(p)


class TestTokens:
    def test_matrix_tokens(self):
        m = TropicalMatrix.from_rows(
            [[0, Fraction(-1, 2)], [EPSILON, Fraction(3)]]
        )
        assert matrix_tokens(m) == [[0, "-1/2"], ["-inf", 3]]

    def test_column_tokens(self):
        c = TropicalMatrix.from_rows([[Fraction(1, 3)], [EPSILON], [-2]])
        assert column_tokens(c) == ["1/3", "-inf", -2]

    def test_tokens_match_weight_token(self):
        rng = random.Random(41)
        kinds = {"den1": 0, "mixed": 0}
        for _ in range(200):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            dens = (1,) if rng.random() < 0.3 else (1, 2, 3, 4, 6, 9, 10)
            kinds["den1" if dens == (1,) else "mixed"] += 1
            m = TropicalMatrix.from_rows([
                [
                    EPSILON if rng.random() < 0.25
                    else Fraction(rng.randint(-40, 40), rng.choice(dens))
                    for _ in range(cols)
                ]
                for _ in range(rows)
            ])
            want = [[weight_token(m.entry(i, j)) for j in range(cols)] for i in range(rows)]
            got = matrix_tokens(m)
            assert got == want
            assert all(type(t) in (int, str) for row in got for t in row)
            column = [weight_token(m.entry(i, 0)) for i in range(rows)]
            assert column_tokens(m) == column
            assert all(type(t) in (int, str) for t in column_tokens(m))
        assert min(kinds.values()) > 40

    def test_tokens_with_denominator_past_int64(self):
        c = TropicalMatrix.from_rows([[Fraction(1, 2**70)], [Fraction(-3, 2**69)], [0], [EPSILON]])
        assert column_tokens(c) == [f"1/{2**70}", f"-3/{2**69}", 0, "-inf"]

    def test_family_to_dict_layout(self, family5_loaded):
        family, names = family5_loaded
        d = family_to_dict(family, names)
        assert d["n"] == 5
        assert [m["name"] for m in d["members"]] == list(names)
        assert d["members"][0]["rows"][0] == [0, -1, -2, "-inf", "-inf"]
