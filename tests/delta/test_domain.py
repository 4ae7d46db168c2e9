"""Domain extraction in the nested-aggregate delta rule.

``delta`` emits ``D * ((x := Q + dQ) - (x := Q))`` for a lift/exists, where
``D`` is the product of the equalities every monomial of ``dQ`` imposes on
variables bound to the nested aggregate's left.  On small random databases
the restricted delta must equal the unrestricted one (``D`` forced empty)
and both must equal ``Q(db + u) - Q(db)``; and ``D`` must be empty exactly
where no equality binds the nested aggregate to the outer tuples.
"""

import random

import pytest

from repro.agca.ast import Cmp, VVar
from repro.agca.builders import agg, cmp, exists, lift, plus, prod, rel, val
from repro.agca.evaluator import DictSource, Evaluator
from repro.core.gmr import GMR
from repro.core.rows import Row
from repro.delta import rules
from repro.delta.events import DELETE, INSERT, BulkUpdate, TriggerEvent
from repro.delta.rules import delta, delta_domain, nested_domains
from repro.optimizer.simplify import simplify

SCHEMAS = {
    "R": ("k", "a"),
    "R2": ("k1", "k2", "a"),
    "S": ("k", "b"),
    "S2": ("k1", "k2", "b"),
    "T": ("k", "c"),
}


def event(relation, sign=INSERT):
    columns = SCHEMAS[relation]
    prefix = relation.lower()
    return TriggerEvent(relation, sign, columns, tuple(f"{prefix}_{c}" for c in columns))


def equality(variable, trigger_var):
    return Cmp(VVar(variable), "=", VVar(trigger_var))


#: name -> (query, updated relation, the domain of each nested aggregate the
#: update changes, in the order the delta transform meets them).
SHAPES = {
    "equality-correlated lift": (
        agg(("k",), prod(
            rel("R", "k", "a"),
            lift("s", agg((), prod(rel("S", "k", "b"), val("b")))),
            cmp("a", "<", "s"),
        )),
        "S",
        [(equality("k", "s_k"),)],
    ),
    "exists": (
        agg(("k",), prod(rel("R", "k", "a"), exists(rel("S", "k", "b")), val("a"))),
        "S",
        [(equality("k", "s_k"),)],
    ),
    "two correlation variables": (
        agg((), prod(
            rel("R2", "k1", "k2", "a"),
            lift("s", agg((), prod(rel("S2", "k1", "k2", "b"), val("b")))),
            cmp("a", "<", "s"),
            val("a"),
        )),
        "S2",
        [(equality("k1", "s2_k1"), equality("k2", "s2_k2"))],
    ),
    "inequality-correlated": (
        agg(("k",), prod(
            rel("R", "k", "a"),
            lift("s", agg((), prod(rel("S", "j", "b"), cmp("j", "<", "k"), val("b")))),
            cmp("a", "<", "s"),
        )),
        "S",
        [()],
    ),
    "uncorrelated": (
        agg(("k",), prod(
            rel("R", "k", "a"),
            lift("s", agg((), prod(rel("S", "j", "b"), val("b")))),
            cmp("a", "<", "s"),
        )),
        "S",
        [()],
    ),
    "lift nested in a lift": (
        agg(("k",), prod(
            rel("R", "k", "a"),
            lift("s", agg((), prod(
                rel("S", "k", "b"),
                lift("t", agg((), prod(rel("T", "k", "c"), val("c")))),
                cmp("b", "<", "t"),
                val("b"),
            ))),
            cmp("a", "<", "s"),
        )),
        "T",
        # The inner aggregate is pinned by the outer body's S atom; the outer
        # one inherits the equality from every monomial of its body's delta.
        [(equality("k", "t_k"),), (equality("k", "t_k"),)],
    ),
    "self-correlated (outer and nested over the updated relation)": (
        agg((), prod(
            rel("S", "k", "a"),
            lift("s", agg((), prod(rel("S", "k", "b"), val("b")))),
            cmp("a", "<", "s"),
            val("a"),
        )),
        "S",
        [(equality("k", "s_k"),)],
    ),
    "atom to the left of a self-correlated pair (the Q18a shape)": (
        agg(("k",), prod(
            rel("R", "k", "c"),
            rel("S", "k", "a"),
            lift("s", agg((), prod(rel("S", "k", "b"), val("b")))),
            cmp("a", "<", "s"),
            val("c"),
        )),
        "S",
        [(equality("k", "s_k"),)],
    ),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_domain_is_empty_exactly_where_no_equality_binds(name):
    query, relation, expected = SHAPES[name]
    for sign in (INSERT, DELETE):
        assert nested_domains(query, event(relation, sign)) == expected


def test_domain_is_empty_for_other_relations_and_bulk_updates():
    query, _, _ = SHAPES["equality-correlated lift"]
    assert nested_domains(query, event("R")) == []  # R is not inside the lift
    assert nested_domains(query, BulkUpdate("S", "dS")) == [()]


def test_domain_requires_the_equality_in_every_monomial():
    update = event("S")
    pinned = prod(lift("k", val("s_k")), val("s_b"))
    free = prod(lift("j", val("s_k")), val("s_b"))
    assert delta_domain(pinned, update, {"k"}) == (equality("k", "s_k"),)
    assert delta_domain(agg((), pinned), update, {"k"}) == (equality("k", "s_k"),)
    assert delta_domain(plus(pinned, pinned), update, {"k"}) == (equality("k", "s_k"),)
    assert delta_domain(plus(pinned, free), update, {"k"}) == ()
    assert delta_domain(pinned, update, set()) == ()  # nothing bound to the left


def _random_database(rng):
    keys = (1, 2, 3)
    values = (0, 1, 2, 5, -2)

    def table(columns, rows):
        out = GMR()
        for _ in range(rows):
            row = {c: rng.choice(keys if c.startswith("k") else values) for c in columns}
            out.add_tuple(Row(row), rng.choice((1, 1, 2)))
        return out

    return {name: table(columns, rng.randint(0, 5)) for name, columns in SCHEMAS.items()}


def _evaluate(expr, relations, context=None):
    source = DictSource(relations=relations, schemas=SCHEMAS)
    return Evaluator(source).evaluate(expr, context)


@pytest.mark.parametrize("sign", (INSERT, DELETE))
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_restricted_delta_equals_unrestricted_and_the_true_change(name, sign, monkeypatch):
    query, relation, _ = SHAPES[name]
    update = event(relation, sign)
    restricted = delta(query, update)
    with monkeypatch.context() as patch:
        patch.setattr(rules, "delta_domain", lambda *args: ())
        unrestricted = delta(query, update)
    if any(nested_domains(query, update)):
        assert restricted != unrestricted
    else:
        assert restricted == unrestricted
    simplified = simplify(restricted, bound=update.trigger_vars, needed=("k",))

    rng = random.Random(f"{name}/{sign}")
    for _ in range(40):
        relations = _random_database(rng)
        if sign == DELETE and relations[relation]:
            row = rng.choice(list(relations[relation].rows()))
            values = tuple(row[c] for c in SCHEMAS[relation])
        else:
            values = tuple(
                rng.choice((1, 2, 3) if c.startswith("k") else (0, 1, 2, 5, -2))
                for c in SCHEMAS[relation]
            )
        bindings = dict(zip(update.trigger_vars, values))
        after = dict(relations)
        after[relation] = relations[relation] + GMR.singleton(
            Row(dict(zip(SCHEMAS[relation], values))), sign
        )
        want = _evaluate(query, after) - _evaluate(query, relations)
        assert _evaluate(restricted, relations, bindings) == want
        assert _evaluate(unrestricted, relations, bindings) == want
        assert _evaluate(simplified, relations, bindings) == want
