"""Kernel events per run, pinned.

``RunResult.events`` counts every event the kernel scheduled.  The
counts below are exact for a small fixed Trace-2 run, so an extra heap
trip per disk access or channel transfer (a phase-by-phase disk
service, a grant event for an idle channel, a lifecycle event nobody
waits on) fails here even though results stay bit-identical.  A change
that removes events lowers these numbers on purpose; update them then.
"""

import pytest

from repro.sim import SystemConfig, run_trace
from repro.trace import generate_trace, trace2_config

REQUESTS = 695


@pytest.fixture(scope="module")
def trace():
    trace = generate_trace(trace2_config(0.01))
    assert len(trace) == REQUESTS
    return trace


@pytest.mark.parametrize(
    "org,events",
    [
        ("base", 5306),
        ("mirror", 5870),
        ("raid5", 11318),
        ("parity_striping", 6958),
    ],
)
def test_events_per_organization(trace, org, events):
    result = run_trace(SystemConfig(organization=org), trace, warmup_ms=0.0)
    assert result.requests == REQUESTS
    assert result.events == events
