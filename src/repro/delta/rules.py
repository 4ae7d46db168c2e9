"""The delta transform (Section 3.4 of the paper).

``delta(Q, u)`` returns an AGCA expression for the change of ``Q``'s result
when the database is changed by the update ``u``:

* sums distribute,
* products follow the Leibniz-like rule
  ``∆(A * B) = ∆A * B + A * ∆B + ∆A * ∆B`` (a consequence of ring
  distributivity),
* aggregation commutes with the delta,
* constants, values, and conditions have delta zero,
* a relation atom matching the update becomes the update itself — for a
  single-tuple update ``±R(t)`` it is the product of lifts
  ``±(x1 := t1) * ... * (xk := tk)``,
* lifts (nested aggregates) and EXISTS use the re-evaluation form
  ``D * ((x := Q + ∆Q) - (x := Q))``, which references the original query
  twice; the materialization heuristics deal with the consequences
  (Section 5.1).

**Domain extraction.**  ``D`` says *for which* outer tuples the nested value
changes.  It is the product of the equalities ``{v = t}`` that *every*
monomial of ``∆Q`` imposes between a variable ``v`` already bound to the
nested aggregate's left and a trigger variable ``t`` (:func:`delta_domain`):
the delta of a relation atom is the product of lifts ``(column := t)``, and a
lift over an already-bound variable is an equality condition, so a nested
query correlated on ``v`` carries ``(v := t)`` in each of its delta's
monomials.  Soundness: where any equality of ``D`` fails, every monomial of
``∆Q`` is zero, hence ``∆Q = 0``, the two lifts are equal and their
difference vanishes — multiplying by ``D`` changes nothing, it only states
it.  The simplifier then turns each equality into a binding
``(v := t)`` hoisted in front of the atoms that produce ``v``, so they are
*probed* with the trigger's key instead of scanned: a nested-aggregate
refresh costs the affected keys, not the view.  No equality shared by all
monomials (inequality-correlated or uncorrelated nested queries, bulk
updates) means an empty ``D`` and the unrestricted form; the compiler reads
the same answer to choose between incremental maintenance and
re-evaluation (:func:`nested_domains`).

The function is purely syntactic; simplification is a separate pass
(:mod:`repro.optimizer.simplify`).
"""

from __future__ import annotations

from typing import Iterable, Union

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
    VConst,
    VVar,
)
from repro.agca.builders import const, lift, neg, plus, prod
from repro.delta.events import BulkUpdate, TriggerEvent
from repro.errors import DeltaError
from repro.optimizer.expansion import monomials, product_factors

Update = Union[TriggerEvent, BulkUpdate]

_ZERO = Value(VConst(0))


def delta_is_zero(expr: Expr) -> bool:
    """True when an expression is the literal zero produced by the delta rules."""
    return isinstance(expr, Value) and isinstance(expr.vexpr, VConst) and expr.vexpr.value == 0


def delta(expr: Expr, update: Update, bound: Iterable[str] = ()) -> Expr:
    """Delta of ``expr`` with respect to ``update`` (syntactic, unsimplified).

    ``bound`` names the variables already bound where ``expr`` is evaluated
    (by factors to its left in an enclosing product); it only matters for
    the domain extraction of nested aggregates.
    """
    return _delta(expr, update, frozenset(bound), [])


def nested_domains(expr: Expr, update: Update) -> list[tuple[Expr, ...]]:
    """The domain of every nested aggregate of ``expr`` that ``update`` changes.

    One entry per lift/exists whose body has a non-zero delta, in the order
    the delta transform meets them; an empty entry is a nested aggregate the
    update changes for *every* outer tuple (no equality correlation).
    """
    domains: list[tuple[Expr, ...]] = []
    _delta(expr, update, frozenset(), domains)
    return domains


def _delta(
    expr: Expr, update: Update, bound: frozenset[str], domains: list[tuple[Expr, ...]]
) -> Expr:
    if isinstance(expr, (Value, Cmp)):
        return _ZERO

    if isinstance(expr, MapRef):
        raise DeltaError(
            "cannot take the delta of a materialized map reference; deltas are taken "
            "over base-relation queries before materialization"
        )

    if isinstance(expr, Relation):
        return _delta_relation(expr, update)

    if isinstance(expr, Sum):
        parts = [_delta(t, update, bound, domains) for t in expr.terms]
        nonzero = [p for p in parts if not delta_is_zero(p)]
        if not nonzero:
            return _ZERO
        return plus(*nonzero)

    if isinstance(expr, Product):
        return _delta_product(expr, update, bound, domains)

    if isinstance(expr, AggSum):
        inner = _delta(expr.term, update, bound, domains)
        if delta_is_zero(inner):
            return _ZERO
        return AggSum(expr.group, inner)

    if isinstance(expr, (Lift, Exists)):
        inner = _delta(expr.term, update, bound, domains)
        if delta_is_zero(inner):
            return _ZERO
        domain = delta_domain(inner, update, bound)
        domains.append(domain)
        if isinstance(expr, Lift):
            new_value: Expr = Lift(expr.var, plus(expr.term, inner))
        else:
            new_value = Exists(plus(expr.term, inner))
        return prod(*domain, plus(new_value, neg(expr)))

    raise TypeError(f"not an AGCA expression: {expr!r}")


def delta_domain(
    nested_delta: Expr, update: Update, bound: Iterable[str]
) -> tuple[Expr, ...]:
    """The equalities ``{v = t}`` every monomial of ``nested_delta`` imposes.

    ``v`` ranges over ``bound`` (variables bound to the nested aggregate's
    left) and ``t`` over the update's trigger variables.  A monomial imposes
    ``{v = t}`` when it carries the factor ``(v := t)`` — the delta of a
    relation atom whose column is ``v``; with ``v`` already bound that lift
    *is* the equality — or the comparison itself (the domain of a lift
    nested deeper).  Where any of them fails every monomial is zero, so
    ``nested_delta`` vanishes outside the returned product.  Empty for bulk
    updates and for uncorrelated or inequality-correlated aggregates.
    """
    candidates = frozenset(bound)
    if isinstance(update, BulkUpdate) or not candidates:
        return ()
    trigger_vars = frozenset(update.trigger_vars)
    common: list[tuple[str, str]] | None = None
    for monomial in monomials(nested_delta):
        while isinstance(monomial, AggSum):
            monomial = monomial.term
        imposed: list[tuple[str, str]] = []
        for factor in product_factors(monomial):
            pair = _pinned_by(factor)
            if pair is None:
                continue
            for variable, trigger_var in (pair, pair[::-1]):
                if variable in candidates and trigger_var in trigger_vars:
                    imposed.append((variable, trigger_var))
                    break
        if common is None:
            common = list(dict.fromkeys(imposed))
        else:
            common = [pair for pair in common if pair in imposed]
        if not common:
            return ()
    return tuple(Cmp(VVar(v), "=", VVar(t)) for v, t in common or ())


def _pinned_by(factor: Expr) -> tuple[str, str] | None:
    """``(x, y)`` when ``factor`` is ``(x := y)`` or ``{x = y}`` over variables."""
    if isinstance(factor, Lift) and isinstance(factor.term, Value):
        if isinstance(factor.term.vexpr, VVar):
            return factor.var, factor.term.vexpr.name
    elif isinstance(factor, Cmp) and factor.op in ("=", "=="):
        if isinstance(factor.left, VVar) and isinstance(factor.right, VVar):
            return factor.left.name, factor.right.name
    return None


def _binds(factor: Expr) -> frozenset[str]:
    """Variables a product factor certainly binds for the factors to its right.

    An under-approximation (sums and nested products count for nothing) is
    enough: a variable missing here only makes a domain smaller.
    """
    if isinstance(factor, Relation):
        return frozenset(factor.columns)
    if isinstance(factor, Lift):
        return frozenset((factor.var,))
    if isinstance(factor, AggSum):
        return frozenset(factor.group)
    return frozenset()


def _delta_relation(atom: Relation, update: Update) -> Expr:
    if isinstance(update, BulkUpdate):
        if atom.name != update.relation:
            return _ZERO
        return Relation(update.delta_relation, atom.columns)

    if atom.name != update.relation:
        return _ZERO
    if len(atom.columns) != len(update.trigger_vars):
        raise DeltaError(
            f"relation {atom.name!r} used with arity {len(atom.columns)} but the update "
            f"provides {len(update.trigger_vars)} fields"
        )
    factors = [
        lift(column, Value(VVar(trigger_var)))
        for column, trigger_var in zip(atom.columns, update.trigger_vars)
    ]
    if update.sign < 0:
        return prod(const(-1), *factors)
    return prod(*factors)


def _delta_product(
    expr: Product, update: Update, bound: frozenset[str], domains: list[tuple[Expr, ...]]
) -> Expr:
    terms = list(expr.terms)
    if len(terms) == 1:
        return _delta(terms[0], update, bound, domains)
    head, tail = terms[0], Product(tuple(terms[1:]))
    d_head = _delta(head, update, bound, domains)
    d_tail = _delta(tail, update, bound | _binds(head), domains)
    parts: list[Expr] = []
    if not delta_is_zero(d_head):
        parts.append(prod(d_head, tail))
    if not delta_is_zero(d_tail):
        parts.append(prod(head, d_tail))
    if not delta_is_zero(d_head) and not delta_is_zero(d_tail):
        parts.append(prod(d_head, d_tail))
    if not parts:
        return _ZERO
    return plus(*parts)
