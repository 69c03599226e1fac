"""Closed-form disk service: one wake-up per access, bit-identical times.

The service loop computes the end of the seek, the rotational latency
and the transfer up front and sleeps once.  These tests pin it against
the phase-by-phase reference: a seek timeout, then
:meth:`Disk.rotational_latency` from the time the seek ends, then the
transfer, each added to the clock in turn.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Environment, Event
from repro.disk import AccessKind, Disk, DiskGeometry, DiskRequest, SeekModel

GEO = DiskGeometry()
SEEK = SeekModel.fit()


def _reference_end(disk, t0, start_cyl, block, nblocks):
    """Phase-by-phase end of a READ's transfer, and its t1/t2."""
    seek = SEEK.seek_time(abs(GEO.cylinder_of(block) - start_cyl))
    t1 = t0 + seek
    t2 = t1 + disk.rotational_latency(t1, block)
    return t1, t2, t2 + GEO.transfer_time(nblocks)


class _PhaseLog:
    def __init__(self):
        self.phases = []

    def on_disk_submit(self, disk, request):
        pass

    def on_disk_complete(self, disk, request):
        pass

    def on_disk_phase(self, disk, request, phase, t0, t1):
        self.phases.append((phase, t0, t1))


@given(
    time=st.one_of(
        st.floats(min_value=0.0, max_value=1e-2),
        st.floats(min_value=0.0, max_value=1e7),
    ),
    block=st.integers(min_value=0, max_value=GEO.total_blocks - 4),
    start_cyl=st.integers(min_value=0, max_value=GEO.cylinders - 1),
    phase=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    nblocks=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from([AccessKind.READ, AccessKind.WRITE, AccessKind.RMW]),
)
@settings(max_examples=300, deadline=None)
def test_service_times_match_phase_by_phase_reference(
    time, block, start_cyl, phase, nblocks, kind
):
    env = Environment()
    disk = Disk(env, GEO, SEEK, phase=phase)
    env.run(until=time)
    disk.cylinder = start_cyl
    log = _PhaseLog()
    disk.probe = log
    req = disk.submit(DiskRequest(kind, block, nblocks=nblocks))
    env.run(req.read_complete if kind is not AccessKind.WRITE else req.done)
    t1, t2, t3 = _reference_end(disk, time, start_cyl, block, nblocks)
    assert env.now == t3
    if kind is not AccessKind.WRITE:
        assert req.read_complete.value == t3
    env.run()
    expected = [("seek", time, t1)] if t1 != time else []
    if t2 != t1:
        expected.append(("rotation", t1, t2))
    expected.append(("transfer", t2, t3))
    assert log.phases[: len(expected)] == expected


class TestWakeUps:
    def _events_for(self, env, submit):
        env.run(until=1.0)  # disk process parked on its wake-up event
        before = env._seq
        req = submit()
        env.run()
        return env._seq - before, req

    @pytest.mark.parametrize("kind", [AccessKind.READ, AccessKind.WRITE])
    def test_plain_access_costs_three_events(self, kind):
        env = Environment()
        disk = Disk(env, GEO, SEEK)
        # Wake the idle disk, one service timeout, ``done``.
        n, _ = self._events_for(env, lambda: disk.submit(DiskRequest(kind, 600)))
        assert n == 3

    def test_rmw_costs_four_events(self):
        env = Environment()
        disk = Disk(env, GEO, SEEK)
        # Wake-up, read half, rewrite slot + transfer, ``done``.
        n, _ = self._events_for(env, lambda: disk.submit(DiskRequest(AccessKind.RMW, 600)))
        assert n == 4

    def test_subscribed_lifecycle_events_still_fire(self):
        env = Environment()
        disk = Disk(env, GEO, SEEK)
        env.run(until=1.0)
        req = disk.submit(DiskRequest(AccessKind.READ, 600))
        seen = []
        req.started.callbacks.append(lambda e: seen.append(("started", e.value)))
        req.read_complete.callbacks.append(lambda e: seen.append(("read", e.value)))
        env.run()
        assert seen == [("started", 1.0), ("read", req.done.value)]

    def test_dependent_write_wakes_when_the_head_arrives(self):
        env = Environment()
        disk = Disk(env, GEO, SEEK)
        log = _PhaseLog()
        disk.probe = log
        dep = Event(env)
        req = disk.submit(DiskRequest(AccessKind.WRITE, 600, data_ready=dep))

        def release(env):
            yield env.timeout(40.0)
            dep.succeed()

        env.process(release(env))
        env.run()
        names = [p for p, _, _ in log.phases]
        assert names == ["seek", "rotation", "sync_wait", "rotation", "transfer"]
        for (_, _, end), (_, start, _) in zip(log.phases, log.phases[1:]):
            assert end == start
        assert log.phases[-1][2] == req.done.value

    def test_out_of_range_request_rejected_at_submit(self):
        env = Environment()
        disk = Disk(env, GEO, SEEK)
        with pytest.raises(ValueError):
            disk.submit(DiskRequest(AccessKind.READ, GEO.total_blocks - 1, nblocks=2))
        with pytest.raises(ValueError):
            disk.seek_distance_to(GEO.total_blocks)
