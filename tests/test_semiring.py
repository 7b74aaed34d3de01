import copy
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import is_eps, oplus, otimes
from tropical_transient.semiring import (
    EPSILON,
    ZERO,
    Epsilon,
    as_weight,
    weight_from_token,
    weight_token,
)

finite = st.fractions(min_value=-50, max_value=50, max_denominator=12)
weights = st.one_of(st.just(EPSILON), finite)


def test_epsilon_is_a_singleton():
    assert Epsilon() is EPSILON
    assert copy.copy(EPSILON) is EPSILON
    assert copy.deepcopy(EPSILON) is EPSILON
    assert repr(EPSILON) == "-inf"


# The scalar operations are the reference arithmetic of the Fraction
# oracles; the package computes on int64 grids.

def test_is_eps():
    assert is_eps(EPSILON)
    assert not is_eps(ZERO)
    assert not is_eps(Fraction(-10**9))


@given(weights, weights)
def test_oplus_commutes(a, b):
    assert oplus(a, b) == oplus(b, a) or (is_eps(a) and is_eps(b))


@given(weights, weights, weights)
def test_oplus_associates(a, b, c):
    left = oplus(oplus(a, b), c)
    right = oplus(a, oplus(b, c))
    assert (is_eps(left) and is_eps(right)) or left == right


@given(weights)
def test_epsilon_neutral_for_oplus(a):
    assert oplus(EPSILON, a) is a
    assert oplus(a, EPSILON) is a


@given(weights)
def test_epsilon_absorbs_otimes(a):
    assert is_eps(otimes(EPSILON, a))
    assert is_eps(otimes(a, EPSILON))


@given(finite, finite)
def test_otimes_is_addition(a, b):
    assert otimes(a, b) == a + b


@given(weights, weights, weights)
def test_otimes_distributes_over_oplus(a, b, c):
    left = otimes(a, oplus(b, c))
    right = oplus(otimes(a, b), otimes(a, c))
    assert (is_eps(left) and is_eps(right)) or left == right


@given(finite)
def test_zero_neutral_for_otimes(a):
    assert otimes(ZERO, a) == a


class TestAsWeight:
    def test_passthrough(self):
        assert as_weight(EPSILON) is EPSILON
        assert as_weight(None) is EPSILON
        f = Fraction(3, 7)
        assert as_weight(f) is f

    def test_ints_and_integral_floats(self):
        assert as_weight(-4) == Fraction(-4)
        assert as_weight(2.0) == Fraction(2)

    def test_strings(self):
        assert as_weight("-inf") is EPSILON
        assert as_weight("-3/2") == Fraction(-3, 2)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            as_weight(True)

    def test_rejects_inexact_float(self):
        with pytest.raises(ValueError):
            as_weight(0.1)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_weight(object())


class TestTokens:
    def test_parse(self):
        assert weight_from_token("-inf") is EPSILON
        assert weight_from_token(" -inf ") is EPSILON
        assert weight_from_token(7) == Fraction(7)
        assert weight_from_token("7") == Fraction(7)
        assert weight_from_token("-5/3") == Fraction(-5, 3)
        assert weight_from_token("-1.5") == Fraction(-3, 2)

    def test_parse_rejects_junk(self):
        for bad in ("", "inf", "1/0", "one", None, [1], True):
            with pytest.raises(ValueError):
                weight_from_token(bad)

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(
        st.text(),
        st.from_regex(r"\s?[-+]?[0-9_١]{0,5}(/[-0-9_]{0,4})?(\.[0-9]*)?(e[-+]?[0-9]{1,2})?\s?",
                      fullmatch=True),
        st.integers(-10**30, 10**30).map(str),
        st.tuples(st.integers(-10**20, 10**20), st.integers(0, 10**20)).map("{0[0]}/{0[1]}".format),
    ))
    @example("+1")
    @example(" 1 ")
    @example("1_0")
    @example("1/0")
    @example("-0")
    @example("1e3")
    @example("0x1")
    @example("١")
    @example(" -inf ")
    @example("-0/7")
    @example("0012/0008")
    @example("1/")
    @example("1" * 5000)
    def test_plain_tokens_read_as_fraction_reads_them(self, token):
        # Plain "p" and "p/q" strings skip Fraction(str); every string reads
        # as it did through Fraction(str) alone: the same acceptance, the
        # same value and type, and the same error under the ValueError.
        def through_fraction():
            return EPSILON if token.strip() == "-inf" else Fraction(token)

        try:
            want = through_fraction()
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(ValueError, match="unreadable weight token") as got:
                weight_from_token(token)
            assert type(got.value.__cause__) is type(exc)
            assert str(got.value.__cause__) == str(exc)
        else:
            got = weight_from_token(token)
            assert type(got) is type(want) and got == want

    def test_serialize(self):
        assert weight_token(EPSILON) == "-inf"
        assert weight_token(Fraction(-6)) == -6
        assert isinstance(weight_token(Fraction(4)), int)
        assert weight_token(Fraction(65, 2)) == "65/2"

    @given(weights)
    def test_round_trip(self, w):
        back = weight_from_token(weight_token(w))
        assert back is w if is_eps(w) else back == w
