"""Lowering of AGCA scalar value expressions to Python source.

Value expressions (:class:`~repro.agca.ast.ValueExpr`) are pure arithmetic
over bound variables, so they lower to plain Python expressions: ``+ - *``
map to the native operators, ``/`` to the library's :func:`repro.core.values.div`
(division by zero yields 0), comparisons to native comparison operators
(semantically identical to :func:`repro.core.values.compare` for the value
types that flow through the runtime, including the ``TypeError`` on ordering
a number against a string).

External functions (``VFunc``) lower to a direct call: the function is
resolved from the registry once, at kernel build, and pinned into the
kernel's namespace — so re-registering a name afterwards
(``register_function(..., overwrite=True)``) is seen by the interpreter but
not by kernels already built.

Anything outside the fragment raises :class:`Unsupported`, which the
statement compiler turns into an interpreter fallback.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.agca.ast import VArith, VConst, VFunc, VVar, ValueExpr
from repro.agca.functions import lookup_function
from repro.errors import EvaluationError


class Unsupported(Exception):
    """An expression is outside the compilable fragment (internal control flow)."""


#: AGCA comparison operators and their Python spellings.
CMP_OPS = {
    "=": "==",
    "==": "==",
    "!=": "!=",
    "<>": "!=",
    "<": "<",
    "<=": "<=",
    ">": ">",
    ">=": ">=",
}

#: Constant types whose ``repr`` round-trips as a Python literal.
_INLINE_CONST_TYPES = (int, float, str, bool, type(None))


class SourceEnv:
    """The namespace shared by every function generated for one kernel.

    Allocates fresh names for values that must live in the function's globals
    (non-literal constants, pinned external functions, table handles) and
    carries the mapping handed to ``exec``.
    """

    def __init__(self, base: Mapping[str, Any] | None = None) -> None:
        self.env: dict[str, Any] = dict(base or {})
        self._counter = 0

    def add(self, prefix: str, value: Any) -> str:
        name = f"_{prefix}{self._counter}"
        self._counter += 1
        self.env[name] = value
        return name


def const_source(value: Any, env: SourceEnv) -> str:
    """Python source for a constant: a literal when it round-trips, else a name."""
    if isinstance(value, _INLINE_CONST_TYPES):
        return repr(value)
    return env.add("c", value)


def lower_value(vexpr: ValueExpr, names: Mapping[str, str], env: SourceEnv) -> str:
    """Python expression source computing ``vexpr`` over the locals in ``names``.

    ``names`` maps every bound variable to the generated local holding its
    value; a reference to an unmapped variable raises :class:`Unsupported`
    (the interpreter raises ``UnboundVariableError`` for it at run time, and
    falling back preserves that behaviour).
    """
    if isinstance(vexpr, VConst):
        return const_source(vexpr.value, env)
    if isinstance(vexpr, VVar):
        local = names.get(vexpr.name)
        if local is None:
            raise Unsupported(f"variable {vexpr.name!r} is not bound at this point")
        return local
    if isinstance(vexpr, VArith):
        left = lower_value(vexpr.left, names, env)
        right = lower_value(vexpr.right, names, env)
        if vexpr.op == "/":
            return f"_div({left}, {right})"
        return f"({left} {vexpr.op} {right})"
    if isinstance(vexpr, VFunc):
        try:
            fn = lookup_function(vexpr.name)
        except EvaluationError:
            raise Unsupported(f"unknown scalar function {vexpr.name!r}") from None
        handle = env.add("fn", fn)
        args = ", ".join(lower_value(a, names, env) for a in vexpr.args)
        return f"{handle}({args})"
    raise Unsupported(f"not a value expression: {vexpr!r}")


def lower_condition(
    left: ValueExpr,
    op: str,
    right: ValueExpr,
    names: Mapping[str, str],
    env: SourceEnv,
) -> str:
    """Python boolean expression source for the comparison ``left op right``."""
    py_op = CMP_OPS.get(op)
    if py_op is None:
        raise Unsupported(f"comparison operator {op!r}")
    lhs = lower_value(left, names, env)
    rhs = lower_value(right, names, env)
    return f"({lhs} {py_op} {rhs})"
