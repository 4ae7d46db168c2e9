"""Expression simplification (Section 5.3 of the paper).

The delta transform makes expressions larger and clumsier: it introduces
lifts of trigger variables, products with constant factors, sums of nearly
identical terms and ``Q - Q`` patterns.  This pass cleans them up with the
paper's toolbox:

* **partial evaluation / algebraic identities** — constant folding,
  ``Q * 1 = Q``, ``Q * 0 = 0``, ``Q + 0 = Q``;
* **unification** — equality conditions become assignments (lifts) when one
  side is an unbound variable, and assignments of simple values are
  propagated through the rest of the product (β-reduction style), honouring
  AGCA's restriction that constants cannot be pushed into relation atoms;
  an equality against trigger values shared by every addend of a
  nested-aggregate delta is first pulled out of the sum, so that it can become
  the probe key of the atoms to its left, and ``{x = x}`` folds to ``1``;
* **merging and cancellation of sum terms** — syntactically equal monomials
  combine their constant coefficients, which is what collapses
  ``(x := Q + ∆Q) - (x := Q)`` to zero whenever ``∆Q`` vanished.

``simplify`` must be given the set of variables bound from outside (trigger
variables) and the set of output variables that must remain available
(``needed``, e.g. the keys of the map a statement updates); both influence
which assignments may be eliminated.
"""

from __future__ import annotations

from typing import Iterable

from repro.agca.ast import (
    AggSum,
    Cmp,
    Exists,
    Expr,
    Lift,
    MapRef,
    Product,
    Relation,
    Sum,
    Value,
    VArith,
    VConst,
    VVar,
    ValueExpr,
    free_variables,
    rename_variables,
    substitute_variable,
    value_variables,
    walk,
)
from repro.agca.builders import plus, prod
from repro.agca.schema import output_variables
from repro.core.values import comparison_holds, div, is_zero
from repro.errors import SchemaError
from repro.optimizer.expansion import product_factors

_MAX_PASSES = 8


def simplify(
    expr: Expr, bound: Iterable[str] = (), needed: Iterable[str] = ()
) -> Expr:
    """Simplify ``expr`` under externally bound variables and required outputs."""
    bound_set = frozenset(bound)
    needed_set = frozenset(needed)
    current = expr
    for _ in range(_MAX_PASSES):
        simplified = _simplify(current, bound_set, needed_set)
        if simplified == current:
            return simplified
        current = simplified
    return current


# ---------------------------------------------------------------------------
# Value-expression folding
# ---------------------------------------------------------------------------


def fold_value(vexpr: ValueExpr) -> ValueExpr:
    """Constant-fold a scalar value expression."""
    if isinstance(vexpr, VArith):
        left = fold_value(vexpr.left)
        right = fold_value(vexpr.right)
        if isinstance(left, VConst) and isinstance(right, VConst):
            lv, rv = left.value, right.value
            if vexpr.op == "+":
                return VConst(lv + rv)
            if vexpr.op == "-":
                return VConst(lv - rv)
            if vexpr.op == "*":
                return VConst(lv * rv)
            return VConst(div(lv, rv))
        if vexpr.op == "*":
            if isinstance(left, VConst) and left.value == 1:
                return right
            if isinstance(right, VConst) and right.value == 1:
                return left
            if (isinstance(left, VConst) and left.value == 0) or (
                isinstance(right, VConst) and right.value == 0
            ):
                return VConst(0)
        if vexpr.op == "+":
            if isinstance(left, VConst) and left.value == 0:
                return right
            if isinstance(right, VConst) and right.value == 0:
                return left
        if vexpr.op == "-" and isinstance(right, VConst) and right.value == 0:
            return left
        return VArith(vexpr.op, left, right)
    return vexpr


# ---------------------------------------------------------------------------
# Node dispatch
# ---------------------------------------------------------------------------


def _simplify(expr: Expr, bound: frozenset[str], needed: frozenset[str]) -> Expr:
    if isinstance(expr, Value):
        return Value(fold_value(expr.vexpr))

    if isinstance(expr, Cmp):
        left = fold_value(expr.left)
        right = fold_value(expr.right)
        if isinstance(left, VConst) and isinstance(right, VConst):
            return Value(VConst(comparison_holds(left.value, expr.op, right.value)))
        if expr.op in ("=", "==") and isinstance(left, VVar) and left == right:
            return Value(VConst(1))  # {x = x}, left behind by unification
        return Cmp(left, expr.op, right)

    if isinstance(expr, (Relation, MapRef)):
        return expr

    if isinstance(expr, AggSum):
        inner = _simplify(expr.term, bound, frozenset(expr.group))
        if _is_const_zero(inner):
            return Value(VConst(0))
        if isinstance(inner, AggSum) and set(expr.group) <= set(inner.group):
            inner = inner.term
        try:
            if output_variables(inner, bound) == frozenset(expr.group):
                return inner
        except Exception:  # schema errors on intermediate shapes: keep the AggSum
            pass
        return AggSum(expr.group, inner)

    if isinstance(expr, Lift):
        inner = _simplify(expr.term, bound, frozenset())
        return Lift(expr.var, inner)

    if isinstance(expr, Exists):
        inner = _simplify(expr.term, bound, frozenset())
        if isinstance(inner, Value) and isinstance(inner.vexpr, VConst):
            return Value(VConst(0 if is_zero(inner.vexpr.value) else 1))
        return Exists(inner)

    if isinstance(expr, Sum):
        return _simplify_sum(expr, bound, needed)

    if isinstance(expr, Product):
        return _simplify_product(expr, bound, needed)

    raise TypeError(f"not an AGCA expression: {expr!r}")


def _is_const_zero(expr: Expr) -> bool:
    return isinstance(expr, Value) and isinstance(expr.vexpr, VConst) and is_zero(expr.vexpr.value)


def _is_const_one(expr: Expr) -> bool:
    return (
        isinstance(expr, Value)
        and isinstance(expr.vexpr, VConst)
        and expr.vexpr.value == 1
    )


# ---------------------------------------------------------------------------
# Sums: flatten, merge coefficients, cancel opposites
# ---------------------------------------------------------------------------


def _split_coefficient(expr: Expr) -> tuple[float, Expr]:
    """Split a monomial into (numeric coefficient, residual expression)."""
    factors = product_factors(expr)
    coefficient = 1
    rest: list[Expr] = []
    for factor in factors:
        if isinstance(factor, Value) and isinstance(factor.vexpr, VConst) and isinstance(
            factor.vexpr.value, (int, float)
        ):
            coefficient = coefficient * factor.vexpr.value
        else:
            rest.append(factor)
    return coefficient, prod(*rest)


def _simplify_sum(expr: Sum, bound: frozenset[str], needed: frozenset[str]) -> Expr:
    flat: list[Expr] = []
    for term in expr.terms:
        simplified = _simplify(term, bound, needed)
        if isinstance(simplified, Sum):
            flat.extend(simplified.terms)
        elif not _is_const_zero(simplified):
            flat.append(simplified)
    if not flat:
        return Value(VConst(0))

    # Merge syntactically equal monomials by adding their coefficients; this is
    # what cancels the (x := Q + 0) - (x := Q) pattern left behind by deltas.
    residuals: list[Expr] = []
    coefficients: list[float] = []
    for term in flat:
        coefficient, residual = _split_coefficient(term)
        for i, existing in enumerate(residuals):
            if existing == residual:
                coefficients[i] += coefficient
                break
        else:
            residuals.append(residual)
            coefficients.append(coefficient)

    rebuilt: list[Expr] = []
    for coefficient, residual in zip(coefficients, residuals):
        if is_zero(coefficient):
            continue
        if _is_const_one(residual):
            rebuilt.append(Value(VConst(coefficient)))
        elif coefficient == 1:
            rebuilt.append(residual)
        else:
            rebuilt.append(prod(Value(VConst(coefficient)), residual))
    if not rebuilt:
        return Value(VConst(0))
    return plus(*rebuilt)


# ---------------------------------------------------------------------------
# Products: identities, unification, lift propagation
# ---------------------------------------------------------------------------


def _pin_to_bound(factor: Expr, bound: frozenset[str]) -> tuple[str, ValueExpr] | None:
    """``(x, t)`` when ``factor`` is ``{x = t}`` (either way round) with ``x`` a
    variable not bound from outside and ``t`` a value over ``bound`` only."""
    if isinstance(factor, Cmp) and factor.op in ("=", "=="):
        for var_side, val_side in ((factor.left, factor.right), (factor.right, factor.left)):
            if (
                isinstance(var_side, VVar)
                and var_side.name not in bound
                and value_variables(val_side) <= bound
            ):
                return var_side.name, val_side
    return None


def _hoist_bound_equalities(factors: list[Expr], bound: frozenset[str]) -> list[Expr]:
    """Commute equalities against externally bound values to the front as lifts.

    An equality ``{x = t}`` where ``t`` only uses bound (e.g. trigger)
    variables pins ``x``; converting it to ``(x := t)`` *before* the atoms
    that produce ``x`` turns later relation/map accesses into index lookups
    instead of scans — the paper's "commute the comparison left until the
    variable falls out of scope" unification step.
    """
    hoisted: list[Expr] = []
    rest: list[Expr] = []
    pinned: set[str] = set()
    for factor in factors:
        pin = _pin_to_bound(factor, bound)
        if pin is not None and pin[0] not in pinned:
            hoisted.append(Lift(pin[0], Value(pin[1])))
            pinned.add(pin[0])
        else:
            rest.append(factor)
    return hoisted + rest


def _has_nested_aggregate(expr: Expr) -> bool:
    return any(
        isinstance(node, Exists)
        or (isinstance(node, Lift) and not isinstance(node.term, Value))
        for node in walk(expr)
    )


def _factor_out_shared_equalities(factors: list[Expr], bound: frozenset[str]) -> list[Expr]:
    """Pull an equality every addend of a nested-aggregate delta carries out of the sum.

    ``A * (E*x + E*y)`` is ``A * E * (x + y)``.  Where a product holds a
    nested aggregate over the updated relation next to another atom of it
    (Q18a), the tail's delta is a sum whose addends each carry the update's
    equality — as the changed atom's lift or as the aggregate's domain
    (:func:`repro.delta.rules.delta_domain`) — where the factors to their
    left (``A``) cannot see it.  Lifted to the product level,
    :func:`_hoist_bound_equalities` turns it into the key ``A`` is probed by
    instead of a filter over its scan.  Only equalities pinning a variable
    bound at the sum's position to externally bound (trigger) values move,
    so the rewrite never unbinds a condition; every copy goes, because a
    condition is idempotent (``E * E`` is ``E``).  Sums without a nested
    aggregate are left as they are.
    """
    out: list[Expr] = []
    for factor in factors:
        if (
            isinstance(factor, Sum)
            and len(factor.terms) > 1
            and _has_nested_aggregate(factor)
        ):
            try:
                available = bound | output_variables(prod(*out), bound)
            except SchemaError:  # an intermediate shape: only the outside counts
                available = bound
            addends = [product_factors(term) for term in factor.terms]
            shared = []
            for f in dict.fromkeys(addends[0]):
                pin = _pin_to_bound(f, bound)
                if (
                    pin is not None
                    and pin[0] in available
                    and all(f in other for other in addends[1:])
                ):
                    shared.append(f)
            if shared:
                out.extend(shared)
                factor = Sum(tuple(
                    prod(*(f for f in addend if f not in shared)) for addend in addends
                ))
        out.append(factor)
    return out


def _unify_variable_equalities(
    factors: list[Expr], bound: frozenset[str], needed: frozenset[str]
) -> list[Expr]:
    """Merge variables equated by ``{a = b}`` conditions (unification).

    An equality between two free (non-trigger) variables is a natural-join
    edge: renaming one variable to the other everywhere in the product makes
    the join explicit, which both simplifies the expression and lets the
    join-graph decomposition see the connection.  A variable that the caller
    needs as an output is never renamed away; if both sides are needed the
    condition is left untouched.
    """
    changed = True
    while changed:
        changed = False
        for index, factor in enumerate(factors):
            if not (isinstance(factor, Cmp) and factor.op in ("=", "==")):
                continue
            left, right = factor.left, factor.right
            if not (isinstance(left, VVar) and isinstance(right, VVar)):
                continue
            a, b = left.name, right.name
            if a == b:
                factors = factors[:index] + factors[index + 1 :]
                changed = True
                break
            if a in bound or b in bound:
                continue  # handled by equality hoisting against bound values
            if a in needed and b in needed:
                continue
            victim, keep = (b, a) if b not in needed else (a, b)
            factors = [
                rename_variables(f, {victim: keep})
                for i, f in enumerate(factors)
                if i != index
            ]
            changed = True
            break
    return factors


def _simplify_product(expr: Product, bound: frozenset[str], needed: frozenset[str]) -> Expr:
    pending: list[Expr] = _factor_out_shared_equalities(list(product_factors(expr)), bound)
    pending = _hoist_bound_equalities(pending, bound)
    pending = _unify_variable_equalities(pending, bound, needed)
    kept: list[Expr] = []
    current_bound = set(bound)
    coefficient = 1

    index = 0
    while index < len(pending):
        later = pending[index + 1 :]
        later_vars: set[str] = set()
        for factor in later:
            later_vars.update(free_variables(factor))
        term_needed = frozenset(needed | later_vars)
        factor = _simplify(pending[index], frozenset(current_bound), term_needed)
        index += 1

        if _is_const_zero(factor):
            return Value(VConst(0))
        if _is_const_one(factor):
            continue
        # Split multiplicative scalar factors, e.g. Value(xch * price) into
        # Value(xch) * Value(price): the pieces can then be pushed into (or
        # pulled out of) materialized views independently.
        if isinstance(factor, Value) and isinstance(factor.vexpr, VArith) and factor.vexpr.op == "*":
            pending.insert(index, Value(factor.vexpr.right))
            pending.insert(index, Value(factor.vexpr.left))
            continue
        if isinstance(factor, Value) and isinstance(factor.vexpr, VConst) and isinstance(
            factor.vexpr.value, (int, float)
        ):
            coefficient = coefficient * factor.vexpr.value
            continue

        # Unification step 1: turn an equality with a single unbound variable on
        # one side (and only bound variables on the other) into an assignment.
        if isinstance(factor, Cmp) and factor.op in ("=", "=="):
            factor = _equality_to_lift(factor, frozenset(current_bound))

        # Unification step 2: propagate assignments of plain values through the
        # remaining factors, and drop the assignment when nothing needs it.
        if isinstance(factor, Lift) and isinstance(factor.term, Value):
            factor, pending, index = _propagate_lift(
                factor, pending, index, frozenset(current_bound), needed
            )
            if factor is None:
                continue

        kept.append(factor)
        try:
            current_bound |= output_variables(factor, frozenset(current_bound))
        except Exception:
            current_bound |= free_variables(factor)

    if coefficient != 1 or not kept:
        if is_zero(coefficient):
            return Value(VConst(0))
        return prod(Value(VConst(coefficient)), *kept)
    return prod(*kept)


def _equality_to_lift(factor: Cmp, bound: frozenset[str]) -> Expr:
    left, right = factor.left, factor.right
    left_is_free_var = isinstance(left, VVar) and left.name not in bound
    right_is_free_var = isinstance(right, VVar) and right.name not in bound
    if left_is_free_var and value_variables(right) <= bound:
        return Lift(left.name, Value(right))
    if right_is_free_var and value_variables(left) <= bound:
        return Lift(right.name, Value(left))
    return factor


def _propagate_lift(
    factor: Lift,
    pending: list[Expr],
    index: int,
    bound: frozenset[str],
    needed: frozenset[str],
) -> tuple[Expr | None, list[Expr], int]:
    """Propagate ``(x := value)`` into the factors after ``index``.

    Returns the (possibly dropped) factor and the updated pending list.  The
    assignment can be eliminated when its variable is not an externally needed
    output, it is not already bound (in which case it is a condition, not a
    binding) and — for constant values — it does not restrict a later relation
    atom (constants cannot be substituted into relation columns).
    """
    assert isinstance(factor.term, Value)
    value = factor.term.vexpr
    variable = factor.var
    if variable in bound:
        # A lift over a bound variable is an equality condition; keep it as such.
        return Cmp(VVar(variable), "=", value), pending, index
    if value_variables(value) - bound:
        # The assigned value is not evaluable yet; leave the lift alone.
        return factor, pending, index

    rest = [substitute_variable(t, variable, value) for t in pending[index:]]
    new_pending = pending[:index] + rest

    still_used = any(variable in free_variables(t) for t in rest)
    if variable in needed or still_used:
        return factor, new_pending, index
    return None, new_pending, index
