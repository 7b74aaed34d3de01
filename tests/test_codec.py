"""The token codec: the token-table loader and ``from_rows`` against the
per-entry Fraction oracles, token output against ``weight_token``, and
the JSON writer against ``json.dumps(indent=2)``."""

import collections
import copy
import enum
import json
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

import oracles
from conftest import fixture_path
from tropical_transient.cli import main
from tropical_transient.family import MatrixFamily
from tropical_transient.io import (
    column_tokens,
    family_to_dict,
    json_text,
    load_family,
    matrix_tokens,
)
from tropical_transient.matrix import _STORE_LIMIT, TropicalMatrix
from tropical_transient.report import deviations_between, render_json
from tropical_transient.semiring import EPSILON

FAMILY = fixture_path("five_node_family.json")
SEQ44 = fixture_path("product_len44.json")


def outcome(fn, *args):
    """fn's result, or the type, message, position and cause of its error."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return "raised", (type(exc), str(exc), getattr(exc, "position", None),
                          type(exc.__cause__))


def assert_same_load(path):
    got = outcome(load_family, path)
    want = outcome(oracles.fraction_load_family, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "raised":
        assert got[1] == want[1]
        return
    (family, names), (want_family, want_names) = got[1], want[1]
    assert names == want_names
    assert family.members == want_family.members
    assert [m.denominator for m in family.members] == [
        m.denominator for m in want_family.members
    ]


def write_family(tmp_path, members, name="f.json", n=None):
    payload = {"members": [{"rows": rows} for rows in members]}
    if n is not None:
        payload["n"] = n
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# Every token kind a family file can hold.  JSON floats become Fractions
# through parse_float; the rest stay as JSON gives them.
TOKENS = [
    0, -3, 7, 2**61, 2**62 - 1, 2**62, -(2**62), -(2**62) + 1,
    "2/4", "-6/9", "-1/3", "3", " 5 ", "-1.25", "0.5", "1e3",
    "-inf", " -inf ", "-inf ",
    0.5, -1.75, 2.0, 1e-3,
    True, False, None, "abc", "1/0", "inf", "", [1], {"a": 1},
    "1/8589934592", "1/8589934593", "-3/4611686018427387904",
]


class TestTokenTableLoader:
    def test_fixture(self):
        assert_same_load(FAMILY)

    @pytest.mark.parametrize("token", TOKENS, ids=repr)
    def test_every_token_kind(self, tmp_path, token):
        # The token in three places of the second member, after a first
        # member that holds every other readable kind.
        path = write_family(tmp_path, [
            [[0, "1/2", -1], ["-inf", 2, "2/6"], [0.25, -4, "-inf"]],
            [[0, token, -1], [token, -2, "-inf"], [-1, -1, token]],
        ])
        assert_same_load(path)

    def test_denominators_past_int64(self, tmp_path):
        # lcm(2^33, 2^33 + 1) exceeds int64, but every scaled entry fits.
        path = write_family(tmp_path, [[[0, "1/8589934592"], ["-1/8589934593", "-inf"]]])
        assert_same_load(path)
        member = load_family(path)[0].members[0]
        assert member.denominator == 2**33 * (2**33 + 1)
        assert matrix_tokens(member) == [[0, "1/8589934592"], ["-1/8589934593", "-inf"]]

    def test_first_overflow_is_the_first_in_row_major_order(self, tmp_path):
        # Member 1 sees y before x; in member 2 (denominator 2) both
        # overflow, and x comes first there.
        x, y = 2**61, 2**61 + 1
        path = write_family(tmp_path, [
            [[0, y], [x, 0]],
            [[0, x], [y, "1/2"]],
        ])
        assert_same_load(path)
        with pytest.raises(OverflowError, match=f"magnitude {2**62} "):
            load_family(path)

    @pytest.mark.parametrize("members", [
        # A bad token before a ragged row, and after one.
        [[[0, "x"], [0]]],
        [[[0, 1], [0]], [[0, "x"], [0, 0]]],
        [[[0], [0, "x"]]],
        # An overflow in member 1 before a bad token in member 2.
        [[[0, 2**62], [0, 0]], [[0, "x"], [0, 0]]],
        # A bad token in member 1 before an overflow in member 2.
        [[[0, True], [0, 0]], [[0, 2**62], [0, 0]]],
        # The same bad token twice in one row, and a good one repeated.
        [[["1/2", "1/2", "bad"], [0, "bad", 1], [0, 0, 0]]],
        # Unhashable tokens after new and known ones.
        [[["1/3", 0], [[0], {"a": 1}]]],
    ])
    def test_errors_and_their_order(self, tmp_path, members):
        assert_same_load(write_family(tmp_path, members))

    def test_json_floats_and_declared_n(self, tmp_path):
        path = tmp_path / "floats.json"
        path.write_text(
            '{"n": 2, "members": [{"rows": [[0, -0.5], [1.25e-1, -1e2]]},'
            ' {"rows": [[0.0, -0.50], [0.125, "-inf"]]}]}',
            encoding="utf-8",
        )
        assert_same_load(path)

    def test_random_families(self, tmp_path):
        rng = random.Random(20261018)
        readable = [t for t in TOKENS if outcome(oracles.fraction_from_rows, [[t]])[0] == "ok"
                    and not isinstance(t, (bool, list, dict)) and t is not None]

        def token():
            kind = rng.random()
            if kind < 0.3:
                return rng.randint(-12, 12)
            if kind < 0.6:
                return f"{rng.randint(-40, 40)}/{rng.randint(1, 12)}"
            if kind < 0.75:
                return rng.choice(["-inf", " -inf "])
            if kind < 0.98:
                return rng.choice(readable)
            return rng.choice(["nope", True, None])

        for case in range(120):
            n = rng.randint(1, 6)
            members = [[[token() for _ in range(n)] for _ in range(n)]
                       for _ in range(rng.randint(1, 3))]
            assert_same_load(write_family(tmp_path, members, name=f"r{case}.json"))

    def test_members_read_only_their_own_tokens(self, tmp_path):
        # The file's table holds 1/2^40, but member 2 never uses it: its
        # denominator stays 1 and 2^30 does not overflow as 2^70 / 2^40.
        path = write_family(tmp_path, [
            [[0, "1/1099511627776"], ["-inf", -1]],
            [[0, 2**30], ["-inf", -1]],
        ])
        assert_same_load(path)
        assert [m.denominator for m in load_family(path)[0].members] == [2**40, 1]

    def test_many_members_of_distinct_tokens(self, tmp_path):
        rng = random.Random(11)
        members = [[[f"{-rng.randint(1, 10**9)}/{rng.randint(1, 4)}" for _ in range(4)]
                    for _ in range(4)] for _ in range(40)]
        assert_same_load(write_family(tmp_path, members))

    def test_random_valid_families_round_trip(self, tmp_path, make_family):
        rng = random.Random(7)
        for case in range(30):
            family = make_family(rng, rng.randint(2, 6), rng.randint(1, 3))
            path = tmp_path / f"v{case}.json"
            oracles.save_family(family, path)
            assert_same_load(path)
            assert load_family(path)[0].members == family.members


class TestFromRows:
    @pytest.mark.parametrize("rows", [
        [[0, None], ["-1/2", "-inf"]],
        [[Fraction(2, 4), EPSILON], [0.0, 3]],
        [[1.0, 1], [True, 0]],
        [[1, 0.5]],
        [["x", [1]]],
        [[[1], "x"]],
        [[np.int64(1)]],
        [[np.float64(2.0), -1]],
        [[float("nan")]],
        [[0, 1], [2]],
        [],
        [[]],
        [[2**62, 0]],
        [[2**62 - 1, "-1/2"]],
        [[Fraction(1, 2**33), Fraction(-1, 2**33 + 1)]],
        [[Fraction(2**61, 3), Fraction(2**61, 2)]],
        [["1/2", "2/4", 1, 1.0, True]],
        [[Fraction(1, 2), 0.5]],
        [[Fraction(1), True], [1, 0]],
        [["1", 1, 1.0, Fraction(1)]],
        ((x for x in (0, "1/3")), iter([None, 2])),
    ], ids=repr)
    def test_against_fraction_oracle(self, rows):
        if not isinstance(rows, list):
            rows = [list(r) for r in rows]
            got = outcome(TropicalMatrix.from_rows, (iter(r) for r in rows))
        else:
            got = outcome(TropicalMatrix.from_rows, rows)
        want = outcome(oracles.fraction_from_rows, rows)
        assert got[0] == want[0], (got, want)
        if got[0] == "ok":
            assert got[1] == want[1]
            assert got[1].denominator == want[1].denominator
        else:
            assert got[1][:2] == want[1][:2]

    @settings(max_examples=60, deadline=None)
    @seed(20261018)
    @given(st.lists(
        st.lists(
            st.one_of(
                st.none(),
                st.integers(-(2**63), 2**63),
                st.fractions(max_denominator=2**40),
                st.sampled_from(["-inf", " -inf ", "1/2", "-7/21", "0.125", "x", True]),
            ),
            min_size=3, max_size=3,
        ),
        min_size=1, max_size=3,
    ))
    def test_random_rows(self, rows):
        got = outcome(TropicalMatrix.from_rows, rows)
        want = outcome(oracles.fraction_from_rows, rows)
        assert got[0] == want[0]
        assert got[1] == want[1] if got[0] == "ok" else got[1][:2] == want[1][:2]


class TestTokensOut:
    def test_random_matrices(self):
        rng = random.Random(3)
        for _ in range(100):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[None if rng.random() < 0.3 else
                     Fraction(rng.randint(-50, 50), rng.choice([1, 2, 3, 4, 6, 12]))
                     for _ in range(c)] for _ in range(r)]
            m = TropicalMatrix.from_rows(rows)
            want = oracles.matrix_token_rows(m)
            assert matrix_tokens(m) == want
            assert column_tokens(m) == [row[0] for row in want]

    def test_extremes(self):
        for rows in (
            [[None, None]],
            [[_STORE_LIMIT - 1, -(_STORE_LIMIT - 1)], [0, None]],
            [[Fraction(1, 2**33), Fraction(-5, 2**33 + 1)], [None, Fraction(3, 2**33)]],
        ):
            m = TropicalMatrix.from_rows(rows)
            assert matrix_tokens(m) == oracles.matrix_token_rows(m)
            for tok in (t for row in matrix_tokens(m) for t in row):
                assert type(tok) in (int, str)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e300, 5e-324]),
    st.text(),
    st.sampled_from(["", "\n", "a\nb", "\t\x00\x1f\x7f", "é ü", " ", "😀", '"\\', "-inf"]),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.sampled_from(["\n", "é", "😀", ""])),
                        inner, max_size=5),
    ),
    max_leaves=40,
)


@st.composite
def token_matrices(draw):
    """A TropicalMatrix of shape 1x1 to 6x6: every entry p/d on one
    denominator d, small or past int64, with p small or near +-2^61, and
    -inf entries (all of them at times)."""
    r, c = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    d = draw(st.sampled_from([1, 2, 3, 12, 2**64 + 1, 3**41]))
    numerators = st.one_of(
        st.integers(-6, 6),
        st.integers(2**61 - 8, 2**61 + 8),
        st.integers(-(2**61) - 8, -(2**61) + 8),
    )
    entry = st.one_of(st.none(), numerators.map(lambda p: Fraction(p, d)))
    if draw(st.booleans()) and draw(st.booleans()):
        entry = st.none()
    return TropicalMatrix.from_rows(
        draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
    )


def nested(value, path):
    """value inside the dicts ("d") and lists ("l") of path, outermost
    first, next to scalars of its own level."""
    for kind in reversed(path):
        value = {"a": 1, "grid": value, "z": [None]} if kind == "d" else ["x", value, 2]
    return value


class TestGridWriter:
    """matrix_tokens grids carry their distinct-value table, which json_text
    writes in one gather; the grid stays the list json.dumps and the
    other readers see."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @seed(20261020)
    @given(token_matrices(), st.lists(st.sampled_from("dl"), max_size=4), st.booleans())
    def test_grids_render_as_json_dumps(self, tmp_path, m, path, as_deviation):
        tokens = matrix_tokens(m)
        assert isinstance(tokens, list)
        assert tokens == oracles.matrix_token_rows(m)
        value = tokens
        if as_deviation:
            # A grid is the computed value of a shape deviation.
            value = deviations_between({"gamma": tokens}, {"gamma": [0]})
            assert value[0]["position"] == [] and value[0]["computed"] is tokens
        value = nested(value, path)
        text = json.dumps(value, indent=2)
        assert json_text(value) == text
        assert json_text(copy.deepcopy(value)) == text
        assert json_text(pickle.loads(pickle.dumps(value))) == text
        if m.rows == m.cols:
            family = MatrixFamily([m, m])
            oracles.save_family(family, tmp_path / "family.json")
            assert load_family(tmp_path / "family.json")[0].members == family.members


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @seed(20261018)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert render_json(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize("value", [
        {}, [], (), [[]], {"a": {}}, {"a": []}, [[], {}, [[]]],
        {"a": 1, "b": [1, "x"], "c": {"d": None, "e": [True, {"f": -0.0}]}},
        {1: "int key", None: 2},
        {"a": {1.5: [], True: 0}},
        collections.OrderedDict(a=1),
        [enum.IntEnum("E", "X").X],
        {"nested": collections.OrderedDict(b=[1, 2])},
    ], ids=repr)
    def test_edge_cases_and_fallbacks(self, value):
        assert json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [Fraction(1, 2), [1, {2, 3}], {"a": [object()]},
                                       {(1, 2): 0}])
    def test_unencodable_values_raise_as_json_dumps_does(self, value):
        with pytest.raises(TypeError) as want:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            json_text(value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("argv", [
        ["validate", FAMILY],
        ["derive", FAMILY],
        ["bound", FAMILY, SEQ44],
        ["check", FAMILY, SEQ44, "--lemmas"],
        ["transient", FAMILY, "--horizon", "6", "--samples", "20"],
    ])
    def test_cli_reports(self, capsys, argv):
        assert main([*argv, "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("case", ["member name", "expected string", "dict key",
                                      "escaped quote"])
    def test_strings_that_read_as_grid_stand_ins(self, family5_loaded, case):
        # A grid's stand-in is "\x00<k>"; each value also holds a string of
        # its own whose text contains a stand-in's.
        family, names = family5_loaded
        grids = [matrix_tokens(member) for member in family.members]
        value = {
            "member name": lambda: family_to_dict(family, ["\x000", *names[1:]]),
            "expected string": lambda: {
                "gamma": grids[0],
                "deviations": deviations_between({"gamma": grids[1]}, {"gamma": "\x001"}),
            },
            "dict key": lambda: {"\x000": grids[0], "a": grids[1]},
            "escaped quote": lambda: {"a": grids[0], "note": 'say "\x000"', "b": grids[1]},
        }[case]()
        assert json_text(value) == json.dumps(value, indent=2)

    def test_save_family(self, tmp_path, family5_loaded):
        family, names = family5_loaded
        path = tmp_path / "family.json"
        oracles.save_family(family, path, names)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(family_to_dict(family, names), indent=2) + "\n"
