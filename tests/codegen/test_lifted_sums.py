"""Codegen for lifts over a sum of scalar terms (nested-aggregate deltas).

The delta of a nested aggregate lifts ``Q + dQ`` — ``Sum[](M[k]) + q``,
``Sum[](M[k]) + {a < b}``, ``Sum[](M[k]) + {k = t} * q`` — and the kernel
must reproduce the evaluator's GMR ``+`` over those addends bit for bit:
values *and* types, in the int, float and ``Fraction`` regimes, in the
binding and the equality-check form.  With that lowering no statement of any
workload query is left to the interpreter.
"""

import random
from fractions import Fraction

import pytest

from repro.agca.ast import (
    AggSum,
    Cmp,
    Lift,
    MapRef,
    Product,
    Relation,
    Sum,
    Value,
    VArith,
    VConst,
    VVar,
)
from repro.codegen import CompiledEngine
from repro.codegen import trigger as trigger_module
from repro.codegen.describe import describe_statement
from repro.compiler.hoivm import compile_query
from repro.compiler.program import (
    INCREMENT,
    MapDeclaration,
    Statement,
    Trigger,
    TriggerProgram,
)
from repro.delta.events import DELETE, INSERT, StreamEvent, TriggerEvent
from repro.runtime.engine import IncrementalEngine
from repro.workloads import all_workloads, workload

SCHEMAS = {"R": ("a", "b")}
COLUMNS = ("a", "b")
TRIGGER_VARS = ("r_a", "r_b")

M_TOTAL = AggSum((), MapRef("M", ("p",)))
M_AT_KEY = AggSum((), MapRef("M", ("r_a",)))


def _signed(sign, *factors):
    return Product(((Value(VConst(-1)),) if sign < 0 else ()) + factors)


def _lifted_bodies(sign):
    """The lifted sums the delta compiler emits, for an insert or a delete."""
    value = _signed(sign, Value(VVar("r_b")))
    return {
        "value": Sum((M_AT_KEY, value)),
        "condition": Sum((M_AT_KEY, _signed(sign, Cmp(VVar("r_a"), "<", VVar("r_b"))))),
        "equality times value": Sum(
            (M_TOTAL, _signed(sign, Cmp(VVar("p"), "=", VVar("r_a")), Value(VVar("r_b"))))
        ),
        "three addends": Sum((M_AT_KEY, value, Value(VConst(1)))),
    }


def _statements(sign):
    event = TriggerEvent("R", sign, COLUMNS, TRIGGER_VARS)
    bodies = _lifted_bodies(sign)

    def statement(target, keys, expr):
        return Statement(target, keys, INCREMENT, expr, event)

    s_plus_one = Value(VArith("+", VVar("s"), VConst(1)))
    return [
        # Binding form: the lifted value flows into the delta, type and all.
        statement("T1", (), Product((Lift("s", bodies["value"]), s_plus_one))),
        statement("T2", (), Product((Lift("s", bodies["condition"]), s_plus_one))),
        statement("T3", (), Product((Lift("s", bodies["three addends"]), s_plus_one))),
        # Under a scan, with the equality addend hitting one key of the slice.
        statement(
            "T4",
            ("p",),
            Product((
                MapRef("W", ("p",)),
                Lift("s", bodies["equality times value"]),
                Cmp(VConst(4), "<", VVar("s")),
                s_plus_one,
            )),
        ),
        # Equality-check form: z is bound first, the lifted sum must equal it.
        statement(
            "T5",
            (),
            Product((Lift("z", Value(VConst(0))), Lift("z", bodies["value"]))),
        ),
        statement("T6", (), Product((Lift("r_a", bodies["condition"]),))),
        # The maps the lifted sums read, maintained last (old values above).
        statement("M", ("r_a",), _signed(sign, Value(VVar("r_b")))),
        statement("W", ("r_a",), _signed(sign, Value(VConst(1)))),
    ]


def _program():
    relation = Relation("R", ("a", "b"))
    maps = {
        name: MapDeclaration(name, keys, relation)
        for name, keys in (
            ("T1", ()), ("T2", ()), ("T3", ()), ("T4", ("p",)), ("T5", ()), ("T6", ()),
            ("M", ("p",)), ("W", ("p",)),
        )
    }
    triggers = {}
    for sign in (INSERT, DELETE):
        trigger = Trigger("R", sign, _statements(sign))
        triggers[trigger.name] = trigger
    return TriggerProgram(
        roots={name: name for name in maps},
        maps=maps,
        triggers=triggers,
        schemas=dict(SCHEMAS),
        stream_relations=("R",),
    )


REGIMES = {
    # Values whose running sums pass through 0 and cross the ``4 <`` threshold.
    "int": (0, 1, 2, 3, 5, -2, -5),
    "float": (0.0, 0.5, 2.5, 0.1, 3.3, -0.1, -2.5, 1.0),
    "fraction": (Fraction(0), Fraction(1, 3), Fraction(5, 2), Fraction(-1, 3), Fraction(3), Fraction(7, 3)),
}


def _stream(values, count=400, seed=11):
    rng = random.Random(seed)
    live, events = [], []
    for _ in range(count):
        if live and rng.random() < 0.4:
            events.append(StreamEvent("R", live.pop(rng.randrange(len(live))), DELETE))
        else:
            row = (rng.randint(0, 4), rng.choice(values))
            live.append(row)
            events.append(StreamEvent("R", row, INSERT))
    return events


def test_every_lifted_sum_statement_compiles():
    program = _program()
    for statement in program.statements():
        assert describe_statement(statement, program)["compiled"], statement.pretty()
    engine = CompiledEngine(program)
    assert engine.codegen.codegen_statistics()["fallback_statements"] == 0
    assert engine.codegen.trigger_kernel_for(INSERT, "R") is not None  # and fuses


@pytest.mark.parametrize("regime", sorted(REGIMES))
@pytest.mark.parametrize("fuse", (True, False))
def test_lifted_sum_kernels_are_bit_identical_to_the_evaluator(regime, fuse, monkeypatch):
    program = _program()
    interpreted = IncrementalEngine(program)
    if not fuse:  # decline fusion: the trigger interprets
        monkeypatch.setattr(trigger_module, "try_fuse_trigger", lambda trigger, program: None)
    compiled = CompiledEngine(program)
    assert (compiled.codegen.trigger_kernel_for(INSERT, "R") is not None) == fuse
    seen_types = set()
    for event in _stream(REGIMES[regime]):
        interpreted.apply(event)
        compiled.apply(event)
        for name in program.maps:
            want = dict(interpreted.maps.table(name).items())
            have = dict(compiled.maps.table(name).items())
            assert want == have, (name, event)
            for row, value in want.items():
                assert type(have[row]) is type(value), (name, row, event)
                seen_types.add(type(value))
    assert (compiled.codegen.fallback_hits == 0) == fuse
    # The stream actually reached the regime it is named for.
    assert {"int": int, "float": float, "fraction": Fraction}[regime] in seen_types


def test_lift_over_a_non_scalar_addend_still_falls_back():
    event = TriggerEvent("R", INSERT, COLUMNS, TRIGGER_VARS)
    body = Sum((M_AT_KEY, MapRef("M", ("r_a",))))  # a bare map atom is not scalar
    statement = Statement("T1", (), INCREMENT, Product((Lift("s", body),)), event)
    program = _program()
    assert not describe_statement(statement, program)["compiled"]


@pytest.mark.parametrize("query_name", sorted(all_workloads()))
def test_no_workload_statement_is_left_to_the_interpreter(query_name):
    translated = workload(query_name).query_factory()
    program = compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )
    stats = CompiledEngine(program).codegen.codegen_statistics()
    assert stats["fallback_statements"] == 0, stats["fallbacks"]
    assert stats["compiled_statements"] == program.statement_count()


@pytest.mark.parametrize(
    "query_name,relation",
    [("Q4", "Lineitem"), ("Q17a", "Lineitem"), ("Q18a", "Lineitem"), ("Q22a", "Orders")],
)
def test_nested_aggregate_refresh_reads_the_affected_keys_only(query_name, relation):
    """The root statements that used to scan every outer tuple now probe:
    each map they read is reached through a key bound to a trigger variable."""
    from repro.codegen.describe import describe_statement

    translated = workload(query_name).query_factory()
    program = compile_query(
        translated.roots(),
        translated.schemas(),
        static_relations=translated.static_relations(),
    )
    root = next(iter(program.roots))
    for sign in (INSERT, DELETE):
        statement = next(
            s for s in program.trigger_for(sign, relation).statements if s.target == root
        )
        shapes = {a["shape"] for a in describe_statement(statement, program)["accesses"]}
        assert shapes <= {"primary_probe", "index_probe", "sink_add"}, (statement.pretty(), shapes)
