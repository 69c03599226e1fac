"""Disk phases of a traced run tile each access without gaps.

The disk reports its phases after the fact, from the closed-form
timestamps of each access.  For every access the ``disk_queue`` phase
(if it queued) and the service phases (seek, rotation, transfer, and
for writes that wait on other disks sync_wait, rmw_rotate and the
rewrite) must cover ``[submit, done]`` back to back: each phase starts
exactly where the previous one ended.
"""

from collections import defaultdict

import pytest

from .conftest import traced_run


@pytest.mark.parametrize("org", ["base", "mirror", "raid5", "parity_striping"])
def test_phases_tile_each_access(org):
    result = traced_run(org)
    spans = result.trace.spans
    phases = defaultdict(list)
    for span in spans:
        if span.kind == "phase":
            phases[span.parent].append(span)
    accesses = [s for s in spans if s.kind == "disk"]
    assert accesses
    for access in accesses:
        parts = sorted(phases[access.sid], key=lambda p: (p.t0, p.t1))
        assert parts, access
        assert parts[0].t0 == access.t0
        for before, after in zip(parts, parts[1:]):
            assert before.t1 == after.t0, (access, before, after)
        assert parts[-1].t1 == access.t1
        assert all(p.t1 > p.t0 for p in parts)
