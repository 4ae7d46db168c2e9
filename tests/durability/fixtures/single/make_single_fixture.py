"""How this directory was written — kept for the record, not run by the tests.

Run at commit c9400ce (the last one whose tables keyed by ``Row``s):

    PYTHONPATH=src python make_single_fixture.py <output directory>

Each ``<query>.state`` is the pickled ``checkpoint_state()`` (``kind:
"single"``) of a compiled engine cut mid-stream: Q3 (secondary-index probes)
after 400 of 800 events with deletions on both sides of the cut, VWAP
(ordered range index) after 150 of 300.  The tests restore them into the current engines, replay the rest of
the stream and compare with the interpreter over the whole stream.
"""
import pickle, shutil, sys
from pathlib import Path

from repro.codegen import CompiledEngine
from repro.compiler.hoivm import compile_query
from repro.core.rows import Row
from repro.workloads import workload

assert hasattr(Row, "from_sorted_items"), "must run on the parent commit"
out = Path(sys.argv[1])
shutil.rmtree(out, ignore_errors=True)
out.mkdir(parents=True)

CUTS = {"Q3": (800, 400, {"max_live_orders": 25}), "VWAP": (300, 150, {})}
for name, (total, cut, stream_kwargs) in CUTS.items():
    spec = workload(name)
    translated = spec.query_factory()
    program = compile_query(translated.roots(), translated.schemas(),
                            static_relations=translated.static_relations())
    engine = CompiledEngine(program)
    for relation, rows in spec.static_tables().items():
        if relation in program.static_relations:
            engine.load_static(relation, rows)
    events = list(spec.stream_factory(events=total, **stream_kwargs))
    engine.apply_many(events[:cut])
    with open(out / f"{name}.state", "wb") as handle:
        pickle.dump(engine.checkpoint_state(), handle, protocol=4)
