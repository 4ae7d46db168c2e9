"""How this directory was written — kept for the record, not run by the tests.

Run at commit 90f4963 (the last one that wrote incremental checkpoints):

    PYTHONPATH=src python make_chain_fixture.py <output directory>

``service/`` is the layout every default directory of that commit had: a Q1
service (compiled engine, the default four cuts per full base) cut at 40, 80
and 120 — a base at 40 and deltas at 80 and 120 — plus a WAL whose tail
(batch ``b3``, events 120..160) lies past the last cut.  Builds that write
only full bases ignore the deltas: they restore the base at 40 and replay
the three logged batches after it.  The tests copy the directory before
opening it: recovery appends to, truncates and prunes it.
"""
import shutil, sys
from pathlib import Path

from repro.compiler.hoivm import compile_query
from repro.service import ViewService, engine_for_mode
from repro.service import checkpoint as checkpoint_module
from repro.workloads import workload

assert hasattr(checkpoint_module, "DEFAULT_FULL_EVERY"), "must run on the parent commit"
out = Path(sys.argv[1])
shutil.rmtree(out, ignore_errors=True)

spec = workload("Q1")
translated = spec.query_factory()
program = compile_query(translated.roots(), translated.schemas(),
                        static_relations=translated.static_relations())
events = list(spec.stream_factory(events=160, max_live_orders=20))
service = ViewService(engine_for_mode(program, "compiled"),
                      checkpoint_dir=out / "service" / "ckpt",
                      wal_dir=out / "service" / "wal")
for index, start in enumerate(range(0, 160, 40)):
    service.ingest(events[start:start + 40], batch_id=f"b{index}")
    if index < 3:
        service.checkpoint()
service.close()
