"""Unit tests for the statement planner: lowering, capability check, kernels.

Every case plans one statement and runs it as the one-statement fused kernel
of its trigger — the only scalar kernel the codegen emits.
"""

import pytest

from repro.agca.ast import (
    AggSum,
    Cmp,
    Exists,
    Lift,
    MapRef,
    Product,
    Relation,
    Sum,
    Value,
    VArith,
    VConst,
    VFunc,
    VVar,
)
from repro.codegen.trigger import try_fuse_trigger
from repro.compiler.program import (
    ASSIGN,
    INCREMENT,
    MapDeclaration,
    Statement,
    Trigger,
    TriggerProgram,
)
from repro.delta.events import TriggerEvent
from repro.runtime.database import Database
from repro.runtime.maps import MapStore


def make_program(statements, maps, schemas, streams=("R",), statics=()):
    triggers = {}
    for stmt in statements:
        trigger = triggers.setdefault(
            stmt.event.name, Trigger(stmt.event.relation, stmt.event.sign)
        )
        trigger.statements.append(stmt)
    return TriggerProgram(
        roots={name: name for name in maps},
        maps=maps,
        triggers=triggers,
        schemas=dict(schemas),
        stream_relations=tuple(streams),
        static_relations=tuple(statics),
    )


@pytest.fixture()
def simple():
    """One stream relation R(a, b), a scalar target and a keyed map to probe."""
    event = TriggerEvent("R", 1, ("a", "b"), ("r_a", "r_b"))
    maps = {
        "T": MapDeclaration("T", ("k",), Relation("R", ("k", "b"))),
        "M": MapDeclaration("M", ("x",), Relation("R", ("x", "b"))),
    }
    schemas = {"R": ("a", "b")}
    return event, maps, schemas


def fuse(statement, program):
    """The fused kernel of the statement's trigger, or None when it interprets."""
    trigger = program.trigger_for(statement.event.sign, statement.event.relation)
    return try_fuse_trigger(trigger, program)


def run_statement(statement, program, values, maps=None):
    store = maps if maps is not None else MapStore()
    for decl in program.maps.values():
        store.declare(decl.name, decl.keys)
    kernel = fuse(statement, program)
    assert kernel is not None
    runner = kernel.bind(store, Database())
    runner(tuple(values))
    return store, kernel


def test_scalar_statement_compiles_and_filters(simple):
    event, maps, schemas = simple
    stmt = Statement(
        target="T",
        target_keys=("r_a",),
        operation=INCREMENT,
        expr=Product((Cmp(VVar("r_b"), ">", VConst(10)), Value(VVar("r_b")))),
        event=event,
    )
    program = make_program([stmt], maps, schemas)
    store, kernel = run_statement(stmt, program, (7, 42))
    assert store.table("T").get((7,)) == 42
    # The generated source is straight-line Python over the event values.
    assert "_values[1]" in kernel.source
    # A filtered event contributes nothing.
    runner = kernel.bind(store, Database())
    runner((7, 3))
    assert store.table("T").get((7,)) == 42


def test_repeated_events_accumulate_in_the_target(simple):
    event, maps, schemas = simple
    stmt = Statement(
        target="T",
        target_keys=("r_a",),
        operation=INCREMENT,
        expr=Value(VVar("r_b")),
        event=event,
    )
    program = make_program([stmt], maps, schemas)
    store = MapStore()
    for decl in program.maps.values():
        store.declare(decl.name, decl.keys)
    runner = fuse(stmt, program).bind(store, Database())
    for _ in range(3):
        runner((1, 5))
    assert store.table("T").get((1,)) == 15


def test_bound_map_probe_and_partial_scan(simple):
    event, maps, schemas = simple
    # T[r_a] += M[r_a]: fully bound probe.
    probe = Statement(
        target="T",
        target_keys=("r_a",),
        operation=INCREMENT,
        expr=MapRef("M", ("r_a",)),
        event=event,
    )
    program = make_program([probe], maps, schemas)
    store = MapStore()
    for decl in program.maps.values():
        store.declare(decl.name, decl.keys)
    store.table("M").add((1,), 11)
    kernel = fuse(probe, program)
    assert ".primary.get(" in kernel.source
    runner = kernel.bind(store, Database())
    runner((1, 0))
    runner((2, 0))  # absent key: no contribution
    assert dict(store.table("T").items()) == {(1,): 11}


def test_foreach_statement_scans_and_loops(simple):
    event, maps, schemas = simple
    two = {
        "T2": MapDeclaration("T2", ("k",), Relation("R", ("k", "b"))),
        "M2": MapDeclaration("M2", ("x", "y"), Relation("R", ("x", "y"))),
    }
    # foreach y: T2[y] += M2[r_a, y] * r_b — partial binding on the first key.
    stmt = Statement(
        target="T2",
        target_keys=("y",),
        operation=INCREMENT,
        expr=Product((MapRef("M2", ("r_a", "y")), Value(VVar("r_b")))),
        event=event,
    )
    program = make_program([stmt], two, schemas)
    store = MapStore()
    for decl in program.maps.values():
        store.declare(decl.name, decl.keys)
    store.table("M2").add((1, 10), 2)
    store.table("M2").add((1, 20), 3)
    store.table("M2").add((9, 30), 5)
    kernel = fuse(stmt, program)
    assert ".index_for(" in kernel.source
    runner = kernel.bind(store, Database())
    runner((1, 100))
    got = {k[0]: v for k, v in store.table("T2").items()}
    assert got == {10: 200, 20: 300}


def test_repeated_unbound_variable_is_a_diagonal_equality(simple):
    event, maps, schemas = simple
    two = {
        "T2": MapDeclaration("T2", ("k",), Relation("R", ("k", "b"))),
        "M2": MapDeclaration("M2", ("x", "y"), Relation("R", ("x", "y"))),
    }
    # T2[y] += M2[y, y]: the repeat is an in-row equality check, not a probe.
    stmt = Statement(
        target="T2",
        target_keys=("y",),
        operation=INCREMENT,
        expr=MapRef("M2", ("y", "y")),
        event=event,
    )
    program = make_program([stmt], two, schemas)
    store = MapStore()
    for decl in program.maps.values():
        store.declare(decl.name, decl.keys)
    store.table("M2").add((1, 1), 2)
    store.table("M2").add((1, 5), 3)
    store.table("M2").add((7, 7), 4)
    kernel = fuse(stmt, program)
    assert kernel is not None
    runner = kernel.bind(store, Database())
    runner((0, 0))
    assert {k[0]: v for k, v in store.table("T2").items()} == {1: 2, 7: 4}


def test_repeated_bound_variable_probes_both_columns(simple):
    event, maps, schemas = simple
    two = {
        "T2": MapDeclaration("T2", ("k",), Relation("R", ("k", "b"))),
        "M2": MapDeclaration("M2", ("x", "y"), Relation("R", ("x", "y"))),
    }
    # T2[r_a] += M2[r_a, r_a]: both key columns pin to the trigger variable.
    stmt = Statement(
        target="T2",
        target_keys=("r_a",),
        operation=INCREMENT,
        expr=MapRef("M2", ("r_a", "r_a")),
        event=event,
    )
    program = make_program([stmt], two, schemas)
    store = MapStore()
    for decl in program.maps.values():
        store.declare(decl.name, decl.keys)
    store.table("M2").add((1, 1), 2)
    store.table("M2").add((1, 5), 3)
    kernel = fuse(stmt, program)
    runner = kernel.bind(store, Database())
    runner((1, 0))
    runner((5, 0))
    assert {k[0]: v for k, v in store.table("T2").items()} == {1: 2}


def test_trigger_var_conditions_hoist_above_scans(simple):
    event, maps, schemas = simple
    two = {
        "T2": MapDeclaration("T2", ("k",), Relation("R", ("k", "b"))),
        "M2": MapDeclaration("M2", ("x", "y"), Relation("R", ("x", "y"))),
    }
    # The condition only reads trigger variables, but appears after the scan
    # in term order: the compiler must check it before opening the loop.
    stmt = Statement(
        target="T2",
        target_keys=("y",),
        operation=INCREMENT,
        expr=Product((MapRef("M2", ("r_a", "y")), Cmp(VVar("r_b"), ">", VConst(0)))),
        event=event,
    )
    program = make_program([stmt], two, schemas)
    kernel = fuse(stmt, program)
    source = kernel.source
    assert source.index("if not (_v1 > 0):") < source.index("for ")


@pytest.mark.parametrize(
    "expr",
    [
        Product((Value(VVar("unbound_var")),)),                  # unbound variable
        Lift("z", AggSum(("r_a",), Value(VVar("r_b")))),         # lift over grouped agg
        Product((Product((Value(VVar("r_b")),)),)),              # nested product
    ],
)
def test_unsupported_constructs_fall_back(simple, expr):
    event, maps, schemas = simple
    stmt = Statement(
        target="T", target_keys=(), operation=INCREMENT, expr=expr, event=event
    )
    maps = {"T": MapDeclaration("T", (), Relation("R", ("a", "b")))}
    assert fuse(stmt, make_program([stmt], maps, schemas)) is None


def test_assign_statements_compile(simple):
    # := statements lower to evaluate-group-replace kernels since the
    # nested-aggregate era; the compiled source must end in a replace call.
    event, maps, schemas = simple
    stmt = Statement(
        target="T",
        target_keys=("r_a",),
        operation=ASSIGN,
        expr=Value(VVar("r_b")),
        event=event,
    )
    kernel = fuse(stmt, make_program([stmt], maps, schemas))
    assert kernel is not None
    assert ".replace(_asn" in kernel.source and ".items())" in kernel.source


def test_division_uses_zero_denominator_semantics(simple):
    event, maps, schemas = simple
    stmt = Statement(
        target="T",
        target_keys=("r_a",),
        operation=INCREMENT,
        expr=Value(VArith("/", VConst(10), VVar("r_b"))),
        event=event,
    )
    program = make_program([stmt], maps, schemas)
    store, _ = run_statement(stmt, program, (1, 4))
    assert store.table("T").get((1,)) == 2.5
    # Division by zero yields 0 (and a zero delta adds nothing).
    kernel = fuse(stmt, program)
    runner = kernel.bind(store, Database())
    runner((2, 0))
    assert store.table("T").get((2,)) == 0


# ---------------------------------------------------------------------------
# One capability set: what the batched fast path used to compile on its own
# ---------------------------------------------------------------------------


def _entries(table):
    return dict(table.items())


def _fold(stmt, program, items):
    """Feed ``(values, count)`` pairs to the kernel, each event ``count`` times."""
    store = MapStore()
    for decl in program.maps.values():
        store.declare(decl.name, decl.keys)
    kernel = fuse(stmt, program)
    assert kernel is not None
    runner = kernel.bind(store, Database())
    for values, count in items:
        for _ in range(count):
            runner(values)
    return store.table(stmt.target), kernel


def test_statement_kernel_folds_items_with_prebuilt_key_rows(simple):
    event, maps, schemas = simple
    stmt = Statement(
        target="T",
        target_keys=("r_a",),
        operation=INCREMENT,
        expr=Product((Cmp(VVar("r_b"), ">=", VConst(0)), Value(VVar("r_b")))),
        event=event,
    )
    table, kernel = _fold(
        stmt, make_program([stmt], maps, schemas),
        [((1, 5), 2), ((1, -3), 7), ((2, 4), 1)],
    )
    # The key tuple is built in column order at codegen time, not
    # normalized per add.
    assert "_kr3 = (_v0,)" in kernel.source
    assert _entries(table) == {(1,): 10, (2,): 4}


def test_external_function_compiles_bit_identical_to_interpreter(simple):
    from repro.runtime.interpreter import TriggerExecutor

    event, maps, schemas = simple
    stmt = Statement(
        target="T",
        target_keys=("r_a",),
        operation=INCREMENT,
        expr=Value(VFunc("listmax", (VConst(1), VVar("r_b")))),
        event=event,
    )
    program = make_program([stmt], maps, schemas)
    items = [((1, 7), 1), ((2, -5), 3), ((3, 2.5), 1), ((1, 0.5), 2)]
    table, kernel = _fold(stmt, program, items)
    assert "_fn" in kernel.source  # pinned into the kernel namespace at build

    store = MapStore()
    for decl in program.maps.values():
        store.declare(decl.name, decl.keys)
    interpreter = TriggerExecutor(program, Database(), store)
    for values, count in items:
        for _ in range(count):
            interpreter.execute_increment(stmt, dict(zip(event.trigger_vars, values)))
    expected = _entries(store.table("T"))
    assert _entries(table) == expected == {(1,): 9, (2,): 3, (3,): 2.5}
    assert {k: type(v) for k, v in _entries(table).items()} == {
        k: type(v) for k, v in expected.items()
    }


def test_zero_constant_statement_is_a_noop(simple):
    event, maps, schemas = simple
    stmt = Statement(
        target="T",
        target_keys=("r_a",),
        operation=INCREMENT,
        expr=Product((Value(VConst(0)), Value(VVar("r_b")))),
        event=event,
    )
    table, kernel = _fold(stmt, make_program([stmt], maps, schemas), [((1, 5), 2)])
    assert len(table) == 0
    assert "sink_add" not in kernel.ir_ops  # the dead term emits no IR at all


def test_statement_kernel_keeps_term_order_short_circuit(simple):
    """A zero value factor must skip later terms, exactly like the evaluator.

    The comparison after the zero factor is ill-typed for the data (number
    versus string ordering); the interpreter never evaluates it because the
    zero factor empties the result first, and neither may the kernel.
    """
    event, maps, schemas = simple
    stmt = Statement(
        target="T",
        target_keys=("r_a",),
        operation=INCREMENT,
        expr=Product((
            Value(VArith("-", VVar("r_b"), VVar("r_b"))),   # always 0
            Cmp(VVar("r_b"), "<", VConst("s")),             # ill-typed for ints
        )),
        event=event,
    )
    table, _ = _fold(stmt, make_program([stmt], maps, schemas), [((1, 3), 1)])
    assert len(table) == 0  # and no TypeError on the way
