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
from repro.trace import generate_trace, trace1_config, trace2_config

REQUESTS = 695
CACHED_REQUESTS = 3363

#: Events of the uncached Trace-2 run and of the cached Trace-1 run.
EVENTS = {"base": 3543, "mirror": 4107, "raid5": 9577, "parity_striping": 5195}
CACHED_EVENTS = {"raid5": 22616, "raid4": 22706, "mirror": 18206}


@pytest.fixture(scope="module")
def trace():
    trace = generate_trace(trace2_config(0.01))
    assert len(trace) == REQUESTS
    return trace


@pytest.mark.parametrize("org", EVENTS)
def test_events_per_organization(trace, org):
    result = run_trace(SystemConfig(organization=org), trace, warmup_ms=0.0)
    assert result.requests == REQUESTS
    assert result.events == EVENTS[org]


@pytest.fixture(scope="module")
def cached_trace():
    trace = generate_trace(trace1_config(0.001))
    assert len(trace) == CACHED_REQUESTS
    return trace


@pytest.mark.parametrize("org", CACHED_EVENTS)
def test_cached_events_per_organization(cached_trace, org):
    config = SystemConfig(organization=org, cached=True, cache_mb=16.0, parity_caching=True)
    result = run_trace(config, cached_trace, warmup_ms=0.0)
    assert result.requests == CACHED_REQUESTS
    assert result.events == CACHED_EVENTS[org]
