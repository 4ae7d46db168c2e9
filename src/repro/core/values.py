"""Value arithmetic used by GMR multiplicities and AGCA scalar expressions.

The paper's GMRs carry rational multiplicities.  In this reproduction
multiplicities are plain Python numbers (``int``, ``float`` or
``fractions.Fraction``); the helpers here centralize zero-testing, comparison
and division semantics so the rest of the library stays agnostic of which
numeric type flows through.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Number
from typing import Any

#: Absolute tolerance used when deciding that a float multiplicity is zero.
ZERO_EPSILON = 1e-12


def is_zero(value: Any) -> bool:
    """True when ``value`` counts as a zero multiplicity.

    Integers and Fractions are compared exactly; floats use a small absolute
    tolerance so that long chains of incremental +=/-= updates that should
    cancel out actually free their map entries.
    """
    kind = type(value)
    # Exact-type fast paths: the isinstance chain below pays an ABC check
    # (Fraction) before it reaches float, and map writes call this per entry.
    if kind is float:
        return abs(value) <= ZERO_EPSILON
    if kind is int:
        return value == 0
    if isinstance(value, bool):
        return not value
    if isinstance(value, int) or isinstance(value, Fraction):
        return value == 0
    if isinstance(value, float):
        return abs(value) <= ZERO_EPSILON
    return value == 0


def normalize_number(value: Any) -> Any:
    """Canonicalize a numeric value (collapse integral floats/Fractions to int)."""
    kind = type(value)
    if kind is int:
        return value
    if kind is float:
        return int(value) if value.is_integer() else value
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def div(numerator: Any, denominator: Any) -> Any:
    """Division used by AVG reconstruction and arithmetic value expressions.

    Division by zero yields 0 rather than raising; this mirrors DBToaster's
    treatment (e.g. ``LISTMAX(1, ...)`` guards in the workload exist precisely
    to avoid 0 denominators, and an empty group has aggregate value 0).
    """
    if is_zero(denominator):
        return 0
    if isinstance(numerator, int) and isinstance(denominator, int):
        if numerator % denominator == 0:
            return numerator // denominator
        return numerator / denominator
    return numerator / denominator


#: Ordering comparison operators servable by an ordered range index probe.
RANGE_OPS = frozenset(("<", "<=", ">", ">="))

#: Mirror table for normalizing ``c op x`` into ``x op' c``.
FLIP_OPS = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def flip_comparison(op: str) -> str:
    """The mirrored operator (``a op b`` ⇔ ``b flip(op) a``)."""
    return FLIP_OPS.get(op, op)


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def compare(left: Any, op: str, right: Any) -> bool:
    """Evaluate a comparison ``left op right`` as used in AGCA conditions.

    Numbers compare numerically, strings lexicographically.  Comparing a
    number with a string is a type error in SQL; here it raises ``TypeError``
    except for equality/inequality which are well defined on mixed types.
    """
    try:
        fn = _COMPARATORS[op]
    except KeyError:
        raise ValueError(f"unknown comparison operator {op!r}") from None
    if op in ("=", "==", "!=", "<>"):
        return fn(left, right)
    if isinstance(left, Number) != isinstance(right, Number):
        raise TypeError(
            f"cannot order {type(left).__name__} against {type(right).__name__}"
        )
    return fn(left, right)


def comparison_holds(left: Any, op: str, right: Any) -> int:
    """Return 1/0 multiplicity for a condition, as the AGCA semantics does."""
    return 1 if compare(left, op, right) else 0


#: Tag wrapping non-JSON-native rational values.
FRACTION_TAG = "__fraction__"


def encode_value(value: Any) -> Any:
    """A JSON-representable stand-in for one engine value.

    Everything except :class:`~fractions.Fraction` maps 1:1 onto JSON; the
    wire protocol and the write-ahead log both encode values this way.
    """
    kind = type(value)
    if kind is float or kind is int or kind is str or value is None or kind is bool:
        return value  # JSON-native exact types skip the Fraction ABC check
    if isinstance(value, Fraction):
        return {FRACTION_TAG: [value.numerator, value.denominator]}
    return value


def json_default(value: Any) -> Any:
    """``json.dumps(default=...)`` hook applying :func:`encode_value`.

    The JSON encoder calls it only for values it cannot write itself, so a
    whole batch serializes without any per-value Python.
    """
    encoded = encode_value(value)
    if encoded is value:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return encoded


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if type(value) is dict and FRACTION_TAG in value:
        numerator, denominator = value[FRACTION_TAG]
        return Fraction(numerator, denominator)
    return value
