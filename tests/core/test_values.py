"""Tests for multiplicity/value arithmetic helpers."""

from fractions import Fraction

import pytest

from repro.core.values import compare, comparison_holds, div, is_zero, normalize_number


def test_is_zero_integers_and_fractions_exact():
    assert is_zero(0)
    assert is_zero(Fraction(0, 3))
    assert not is_zero(1)
    assert not is_zero(Fraction(1, 10**12))


def test_is_zero_float_uses_tolerance():
    assert is_zero(1e-15)
    assert not is_zero(1e-6)


def test_is_zero_bool():
    assert is_zero(False)
    assert not is_zero(True)


def test_normalize_collapses_integral_values():
    assert normalize_number(3.0) == 3 and isinstance(normalize_number(3.0), int)
    assert normalize_number(Fraction(4, 2)) == 2 and isinstance(normalize_number(Fraction(4, 2)), int)
    assert normalize_number(Fraction(1, 3)) == Fraction(1, 3)
    assert normalize_number(2.5) == 2.5
    assert normalize_number(True) == 1


def test_div_regular():
    assert div(6, 3) == 2
    assert div(7, 2) == 3.5
    assert div(1.0, 4) == 0.25


def test_div_by_zero_yields_zero():
    assert div(5, 0) == 0
    assert div(0.0, 0.0) == 0


def test_compare_numbers():
    assert compare(1, "<", 2)
    assert compare(2, ">=", 2)
    assert not compare(3, "=", 4)
    assert compare(3, "!=", 4)
    assert compare(3, "<>", 4)


def test_compare_strings_lexicographic():
    assert compare("1994-01-01", "<", "1995-01-01")
    assert compare("abc", "=", "abc")


def test_compare_mixed_types_equality_only():
    assert not compare(1, "=", "1")
    assert compare(1, "!=", "1")
    with pytest.raises(TypeError):
        compare(1, "<", "1")


def test_compare_unknown_operator():
    with pytest.raises(ValueError):
        compare(1, "~", 2)


def test_comparison_holds_returns_multiplicity():
    assert comparison_holds(1, "<", 2) == 1
    assert comparison_holds(2, "<", 1) == 0


# -- exact-type fast paths ---------------------------------------------------------


def _chain_is_zero(value):
    """``is_zero`` as the isinstance chain alone (the reference)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int) or isinstance(value, Fraction):
        return value == 0
    if isinstance(value, float):
        return abs(value) <= 1e-12
    return value == 0


def _chain_normalize(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _value_matrix():
    class MyInt(int):
        pass

    class MyFloat(float):
        pass

    values = [
        0, 1, -7, 2**70, 0.0, -0.0, 1e-13, -1e-13, 1e-11, 3.0, 2.5, float("inf"),
        float("nan"), True, False, Fraction(0, 5), Fraction(6, 3), Fraction(1, 3),
        MyInt(0), MyInt(4), MyFloat(0.0), MyFloat(2.0), MyFloat(2.5), "text", None,
    ]
    try:
        import numpy
    except ImportError:
        return values
    return values + [numpy.float64(0.0), numpy.float64(3.0), numpy.float64(2.5),
                     numpy.int64(0), numpy.int64(9)]


@pytest.mark.parametrize("value", _value_matrix(), ids=repr)
def test_fast_paths_agree_with_the_isinstance_chain_in_value_and_type(value):
    if value is not None and not isinstance(value, str):
        assert is_zero(value) == _chain_is_zero(value)
    got, want = normalize_number(value), _chain_normalize(value)
    assert type(got) is type(want)
    assert got is want or got == want or (got != got and want != want)  # nan


def test_value_codec_fast_paths_keep_the_fraction_tag_contract():
    from repro.core.values import FRACTION_TAG, decode_value, encode_value, json_default

    for plain in (0, 1.5, "s", None, True, [1, 2], {"a": 1}):
        assert encode_value(plain) is plain and decode_value(plain) is plain
    tagged = encode_value(Fraction(3, 9))
    assert tagged == {FRACTION_TAG: [1, 3]} == json_default(Fraction(3, 9))
    assert decode_value(tagged) == Fraction(1, 3)
    assert type(decode_value({FRACTION_TAG: [4, 2]})) is Fraction
    with pytest.raises(TypeError, match="not JSON serializable"):
        json_default(object())
