"""Tests for expression simplification (unification, partial evaluation, cancellation)."""

from repro.agca.ast import Cmp, Lift, MapRef, Product, Relation, Sum, Value, VConst, VVar
from repro.agca.builders import agg, cmp, const, lift, neg, plus, prod, rel, val, var, vadd, vmul
from repro.agca.evaluator import DictSource, Evaluator
from repro.agca.printer import to_string
from repro.core.gmr import GMR
from repro.optimizer.simplify import fold_value, simplify


def test_zero_annihilates_products():
    assert simplify(prod(rel("R", "a"), const(0))) == Value(VConst(0))


def test_one_is_dropped_from_products():
    simplified = simplify(prod(const(1), rel("R", "a")))
    assert simplified == Relation("R", ("a",))


def test_constants_are_folded_in_products():
    simplified = simplify(prod(const(2), const(3), rel("R", "a")))
    assert isinstance(simplified, Product)
    assert Value(VConst(6)) in simplified.terms


def test_zero_terms_are_dropped_from_sums():
    assert simplify(plus(const(0), rel("R", "a"))) == Relation("R", ("a",))
    assert simplify(plus(const(0), const(0))) == Value(VConst(0))


def test_equal_monomials_merge_coefficients():
    expr = plus(rel("R", "a"), rel("R", "a"))
    simplified = simplify(expr)
    assert simplified == prod(const(2), rel("R", "a"))


def test_opposite_terms_cancel():
    expr = plus(rel("R", "a"), neg(rel("R", "a")))
    assert simplify(expr) == Value(VConst(0))


def test_lift_difference_cancels_when_bodies_equal():
    body = agg((), prod(rel("S", "c"), val("c")))
    expr = plus(lift("z", plus(body, const(0))), neg(lift("z", body)))
    assert simplify(expr) == Value(VConst(0))


def test_constant_comparison_is_folded():
    assert simplify(cmp(1, "<", 2)) == Value(VConst(1))
    assert simplify(cmp(2, "<", 1)) == Value(VConst(0))


def test_fold_value_arithmetic_identities():
    assert fold_value(vadd(VConst(2), VConst(3))) == VConst(5)
    assert fold_value(vmul(VVar("x"), VConst(1))) == VVar("x")
    assert fold_value(vmul(VVar("x"), VConst(0))) == VConst(0)
    assert fold_value(vadd(VVar("x"), VConst(0))) == VVar("x")


def test_lift_of_trigger_value_propagates_and_disappears():
    # (a := x) * R(a, b): the lift pins a to the trigger variable x and the
    # relation column is renamed, so no loop over a remains.
    expr = prod(lift("a", val("x")), rel("R", "a", "b"))
    simplified = simplify(expr, bound=["x"])
    assert simplified == Relation("R", ("x", "b"))


def test_needed_output_keeps_the_lift():
    expr = prod(lift("a", val("x")), rel("R", "a", "b"))
    simplified = simplify(expr, bound=["x"], needed=["a"])
    assert any(isinstance(node, Lift) for node in [simplified, *getattr(simplified, "terms", [])])


def test_lift_of_constant_not_pushed_into_relation():
    expr = prod(lift("a", const(5)), rel("R", "a"))
    simplified = simplify(expr)
    # Constants cannot become relation columns, so the binding must survive.
    assert any(isinstance(t, Lift) for t in simplified.terms)
    assert Relation("R", ("a",)) in simplified.terms


def test_equality_with_bound_side_is_hoisted_before_the_atom():
    expr = prod(rel("R", "a", "b"), cmp("a", "=", "x"))
    simplified = simplify(expr, bound=["x"])
    assert simplified == Relation("R", ("x", "b"))


def test_variable_variable_equality_unifies_atoms():
    expr = prod(rel("R", "a", "b"), rel("S", "c", "d"), cmp("b", "=", "c"))
    simplified = simplify(expr)
    text = to_string(simplified)
    assert "{" not in text  # the equality condition is gone
    assert text.count("b") >= 2 or text.count("c") >= 2  # one variable survived in both atoms


def test_unification_respects_needed_outputs():
    expr = prod(rel("R", "a", "b"), rel("S", "c", "d"), cmp("b", "=", "c"))
    simplified = simplify(expr, needed=["b", "c"])
    # Both sides are needed outputs: the equality must be preserved.
    assert "{" in to_string(simplified)


def test_multiplicative_value_factors_are_split():
    expr = prod(rel("R", "a", "b"), val(vmul("a", "b")))
    simplified = simplify(expr)
    values = [t for t in simplified.terms if isinstance(t, Value)]
    assert len(values) == 2


def test_lift_over_bound_variable_becomes_condition():
    expr = prod(lift("x", val("y")), rel("R", "a"))
    simplified = simplify(expr, bound=["x", "y"])
    assert any(isinstance(t, Cmp) for t in simplified.terms)


def test_aggsum_of_zero_collapses():
    assert simplify(agg(("a",), prod(rel("R", "a"), const(0)))) == Value(VConst(0))


def test_nested_aggsum_with_same_group_collapses():
    expr = agg(("a",), agg(("a", "b"), rel("R", "a", "b")))
    simplified = simplify(expr)
    assert to_string(simplified).count("Sum") == 1


def test_simplification_preserves_semantics_on_example():
    source = DictSource(
        relations={
            "R": GMR.from_rows([{"a": 1, "b": 2}, {"a": 2, "b": 2}]),
            "S": GMR.from_rows([{"c": 2, "d": 7}, {"c": 3, "d": 9}]),
        },
        schemas={"R": ("a", "b"), "S": ("c", "d")},
    )
    expr = agg((), prod(rel("R", "a", "b"), rel("S", "c", "d"), cmp("b", "=", "c"), val(vmul("a", "d"))))
    simplified = simplify(expr)
    evaluator = Evaluator(source)
    assert evaluator.evaluate(expr) == evaluator.evaluate(simplified)


def test_simplify_is_idempotent():
    expr = prod(rel("R", "a", "b"), cmp("a", "=", "x"), val(vmul("a", 2)))
    once = simplify(expr, bound=["x"])
    twice = simplify(once, bound=["x"])
    assert once == twice


def test_equality_of_a_variable_with_itself_folds_to_one():
    assert simplify(cmp("x", "=", "x")) == Value(VConst(1))
    # The shape Q22a's lifted body takes once its domain has been propagated.
    body = plus(agg((), MapRef("M", ("t",))), cmp("t", "=", "t"))
    assert simplify(lift("s", body), bound=("t",)) == lift(
        "s", plus(agg((), MapRef("M", ("t",))), const(1))
    )
    assert simplify(cmp("x", "=", "y")) == cmp("x", "=", "y")


def _nested_delta_sum(equalities):
    """``R(k, c) * (E * lift_old * c  +  S(k, a) * E * (lift_new - lift_old))``."""
    nested = agg((), prod(rel("S", "k", "b"), val("b")))
    old = lift("s", nested)
    new = lift("s", plus(nested, val("t_b")))
    return agg(("k",), prod(
        rel("R", "k", "c"),
        plus(
            prod(*equalities, old, cmp("c", "<", "s")),
            prod(rel("S", "k", "a"), *equalities, plus(new, neg(old)), cmp("a", "<", "s")),
        ),
    ))


def test_equality_shared_by_a_nested_delta_sum_becomes_the_probe_key():
    expr = _nested_delta_sum([cmp("k", "=", "t_k"), cmp("k", "=", "t_k")])
    simplified = simplify(expr, bound=("t_k", "t_b"), needed=("k",))
    text = to_string(simplified)
    # The atom left of the sum is read by the trigger key, and neither the
    # equality nor its duplicate survives inside the addends.
    assert "R(t_k, c)" in text and "S(t_k, a)" in text
    assert "=" not in text.replace(":=", "")

    source = DictSource(
        relations={
            "R": GMR.from_rows([{"k": 1, "c": 2}, {"k": 2, "c": 9}]),
            "S": GMR.from_rows([{"k": 1, "b": 4}, {"k": 1, "b": 1}, {"k": 2, "b": 7}]),
        },
        schemas={"R": ("k", "c"), "S": ("k", "b")},
    )
    for t_k in (1, 2, 3):
        context = {"t_k": t_k, "t_b": 5}
        evaluator = Evaluator(source)
        assert evaluator.evaluate(simplified, context) == evaluator.evaluate(expr, context)


def test_shared_equality_stays_put_in_sums_without_a_nested_aggregate():
    # An OR expanded into a sum of condition products (Q19) keeps its shape.
    expr = prod(
        rel("R", "k", "c"),
        plus(prod(cmp("k", "=", "t_k"), cmp("c", "<", 3)), prod(cmp("k", "=", "t_k"), cmp("c", ">", 7))),
    )
    simplified = simplify(expr, bound=("t_k",))
    assert "R(k, c)" in to_string(simplified)
