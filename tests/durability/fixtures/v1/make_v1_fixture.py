"""How this directory was written — kept for the record, not run by the tests.

Run at commit 5be7ce7 (the last one whose log wrote v1 records):

    PYTHONPATH=src python make_v1_fixture.py <output directory>

``wal/`` is a bare two-segment log; ``service/`` is a Q1 service directory —
base + delta checkpoint chain plus a WAL whose tail (batch ``b4``, events
160..200) lies past the last cut.  The tests copy them before opening: an
open log appends to, truncates and prunes its directory.
"""
import shutil, sys
from fractions import Fraction
from pathlib import Path

from repro.compiler.hoivm import compile_query
from repro.delta.events import delete, insert
from repro.durability import WriteAheadLog
from repro.durability import wal as wal_module
from repro.service import ViewService, engine_for_mode
from repro.workloads import workload

assert hasattr(wal_module, "_encode_record"), "must run on the parent commit"
out = Path(sys.argv[1])
shutil.rmtree(out, ignore_errors=True)


def batch(start, count=2):
    events = []
    for i in range(count):
        n = start + i
        make = delete if n % 3 == 2 else insert
        events.append(make("R", n, float(n), Fraction(n, 7), f"s{n}"))
    return events


# 1. a bare log: two segments, Fraction values, ids with awkward characters.
with WriteAheadLog(out / "wal") as wal:
    wal.append(0, batch(0, 3), batch_id="alpha")
    wal.append(3, batch(3, 2))
    wal.rotate()
    wal.append(5, batch(5, 4), batch_id='id with space, "quote" and é')
    wal.append(9, batch(9, 1), batch_id="omega")

# 2. a served directory: Q1, base + delta chain + WAL tail past the last cut.
spec = workload("Q1")
translated = spec.query_factory()
program = compile_query(translated.roots(), translated.schemas(),
                        static_relations=translated.static_relations())
events = list(spec.stream_factory(events=240, max_live_orders=20))
service = ViewService(engine_for_mode(program, "compiled"),
                      checkpoint_dir=out / "service" / "ckpt",
                      wal_dir=out / "service" / "wal", checkpoint_full_every=3)
for index, start in enumerate(range(0, 200, 40)):
    service.ingest(events[start:start + 40], batch_id=f"b{index}")
    if index < 4:
        service.checkpoint()
service.close()
