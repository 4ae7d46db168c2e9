"""kill -9 property suite: recovery is bit-identical from *any* crash point.

Each case forks a child that runs a durable ingest/checkpoint workload with a
named crash site armed (``repro.durability.faults``); the site fires
``os._exit(137)`` — indistinguishable from kill -9, no unwinding, no flushes.
The parent then recovers from whatever the child left on disk, finishes the
stream from the recovered version, and requires the final views to be
bit-identical (values *and* types) to an uninterrupted run.

Covered: every named crash site, crashes *during recovery itself*, and a
seeded sweep of random (site, occurrence) pairs for each engine mode.
"""

import os
import random

import pytest

from repro.durability import CRASH_EXIT_STATUS, CRASH_SITES, arm
from dur_helpers import build_durable_service, load_statics, reference_entries, typed

EVENTS = 200
STEP = 20
ENGINE_MODES = {
    "single": ("incremental", {}),
    "compiled": ("compiled", {}),
    "batched": ("batched", {"batch_size": 13}),
}
SERVICE_KWARGS = {"fsync_every": 1}
RANDOM_POINTS_PER_MODE = 20


def run_workload(fixture, base, mode, kwargs, events=EVENTS):
    """The child's life: ingest in batches, checkpoint every second batch."""
    service = build_durable_service(
        fixture, mode, base=base, **SERVICE_KWARGS, **kwargs
    )
    for index, start in enumerate(range(0, events, STEP)):
        service.ingest(fixture.events[start:start + STEP])
        if index % 2 == 1:
            service.checkpoint()
    service.close()


def in_forked_child(fn) -> int:
    """Run ``fn`` in a forked child; returns the child's exit status."""
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            fn()
            status = 0
        except BaseException:
            status = 1
        finally:
            os._exit(status)
    _, wait_status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(wait_status)


def crash_workload(fixture, base, mode, kwargs, site, hits) -> int:
    def child():
        arm(site, hits)
        run_workload(fixture, base, mode, kwargs)

    return in_forked_child(child)


def recover_and_verify(fixture, base, mode, kwargs, expected):
    """The property: recover, finish the stream, demand bit-identity."""
    service = build_durable_service(
        fixture, mode, base=base, statics=False, **SERVICE_KWARGS, **kwargs
    )
    report = service.recover(
        load_statics=lambda: load_statics(service, fixture.program, fixture.statics)
    )
    version = service.version
    assert version % STEP == 0, (
        f"recovered to mid-batch version {version}: the WAL acknowledged a "
        f"partial batch"
    )
    service.ingest(fixture.events[version:])
    got = typed(service.query(fixture.root).entries)
    assert got == expected, f"views diverge after recovery at version {version}"
    service.close()
    return report


@pytest.fixture(scope="module")
def expected(q1):
    return typed(
        reference_entries(q1.program, q1.statics, q1.events, EVENTS, q1.root)
    )


@pytest.fixture(scope="module")
def q1():
    # Shadows the package fixture: the stream must end exactly where the
    # reference (and every recovered run) stops ingesting.
    from dur_helpers import make_workload_fixture

    return make_workload_fixture("Q1", events=EVENTS, max_live_orders=20)


# -- every named crash site --------------------------------------------------------


@pytest.mark.parametrize("site", [s for s in CRASH_SITES
                                  if not s.startswith("recovery.")])
def test_every_crash_site_recovers_bit_identically(q1, expected, tmp_path, site):
    status = crash_workload(q1, tmp_path, "incremental", {}, site, hits=2)
    # Rare sites (e.g. wal.pruned with nothing to prune) may never fire; a
    # clean exit still has to satisfy the recovery property.
    assert status in (0, CRASH_EXIT_STATUS)
    recover_and_verify(q1, tmp_path, "incremental", {}, expected)


@pytest.mark.parametrize("site", ["recovery.restored", "recovery.replayed"])
def test_crashing_during_recovery_recovers_on_the_next_attempt(
    q1, expected, tmp_path, site
):
    """Recovery is idempotent: a crash mid-recovery leaves a state the next
    recovery handles — no double-applied WAL batches, no lost checkpoints."""
    def die_mid_stream():
        run_workload(q1, tmp_path, "incremental", {}, events=140)
        os._exit(CRASH_EXIT_STATUS)

    assert in_forked_child(die_mid_stream) == CRASH_EXIT_STATUS

    def crash_recovering():
        arm(site, 1)
        service = build_durable_service(
            q1, "incremental", base=tmp_path, statics=False, **SERVICE_KWARGS
        )
        service.recover(
            load_statics=lambda: load_statics(service, q1.program, q1.statics)
        )

    assert in_forked_child(crash_recovering) == CRASH_EXIT_STATUS
    recover_and_verify(q1, tmp_path, "incremental", {}, expected)


# -- seeded random crash points per engine mode ------------------------------------


@pytest.mark.parametrize("mode_name", list(ENGINE_MODES))
def test_random_crash_points_recover_bit_identically(
    q1, expected, tmp_path, mode_name
):
    mode, kwargs = ENGINE_MODES[mode_name]
    rng = random.Random(f"crash-{mode_name}")
    crashed = 0
    for point in range(RANDOM_POINTS_PER_MODE):
        base = tmp_path / f"point{point}"
        site = rng.choice(CRASH_SITES)
        hits = rng.randint(1, 8)
        status = crash_workload(q1, base, mode, kwargs, site, hits)
        assert status in (0, CRASH_EXIT_STATUS), (
            f"point {point}: site {site} x{hits} exited {status}"
        )
        crashed += status == CRASH_EXIT_STATUS
        recover_and_verify(q1, base, mode, kwargs, expected)
    assert crashed >= RANDOM_POINTS_PER_MODE // 2, (
        f"only {crashed} of {RANDOM_POINTS_PER_MODE} points actually crashed; "
        f"the sweep is not exercising recovery"
    )
