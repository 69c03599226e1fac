"""Every configuration is rejected up front or runs clean.

A ``SystemConfig`` drawn over organization, sync policy, disk scheduler,
destage policy, ``n``, cache size and striping unit, valid and invalid
values alike, must either raise ``ValueError`` at construction or run a
tiny Trace-2 run to completion under ``validate=True``.  The only
rejections left to ``run_trace`` are the ones that depend on the
workload, and those also come before the first event: ``n`` must divide
the trace's data disks, and no read may be larger than the cache.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import SystemConfig, run_trace
from repro.trace import generate_trace, trace2_config
from repro.trace.synthetic import TraceStream

TRACE = generate_trace(trace2_config(0.001))
LARGEST_READ = int(TRACE.records["nblocks"][~TRACE.records["is_write"]].max())

config_st = st.fixed_dictionaries(
    {
        "organization": st.sampled_from(
            ["base", "mirror", "raid5", "raid4", "parity_striping", "RAID5", "raid6"]
        ),
        "sync_policy": st.sampled_from(["DF", "DF/PR", "RF", "RF/PR", "SI", "si", "XF"]),
        "disk_scheduler": st.sampled_from(["fcfs", "sstf", "SSTF", "lifo"]),
        "destage_policy": st.sampled_from(["periodic", "lru_demand", "decoupled", "eager"]),
        "n": st.integers(min_value=-1, max_value=11),
        "cached": st.booleans(),
        "cache_mb": st.sampled_from(
            [-1.0, 0.0, 0.001, 0.004, 0.01, 0.1, 1.0, 16.0, math.nan, math.inf]
        ),
        "striping_unit": st.integers(min_value=-1, max_value=6),
    }
)


@given(config_st)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_config_is_rejected_at_construction_or_runs_clean(kwargs):
    try:
        config = SystemConfig(**kwargs)
    except ValueError:
        return
    if TRACE.ndisks % config.n or (config.cached and LARGEST_READ > config.cache_blocks):
        with pytest.raises(ValueError):
            run_trace(config, TRACE, warmup_ms=0.0, validate=True)
        return
    result = run_trace(config, TRACE, warmup_ms=0.0, validate=True)
    assert result.requests == len(TRACE)
    assert result.response.count == len(TRACE)
    assert result.simulated_ms >= float(TRACE.records["time"][-1])


def test_read_larger_than_cache_is_rejected_before_running():
    config = SystemConfig(cached=True, cache_mb=(LARGEST_READ - 1) * 4096 / 2**20)
    with pytest.raises(ValueError, match="larger than the cache"):
        run_trace(config, TRACE, warmup_ms=0.0)


def test_stream_is_judged_by_its_largest_possible_request():
    stream = TraceStream(trace2_config(0.001))
    limit = stream.config.max_request_blocks
    tight = SystemConfig(cached=True, cache_mb=(limit - 1) * 4096 / 2**20)
    with pytest.raises(ValueError, match="larger than the cache"):
        run_trace(tight, stream, warmup_ms=0.0)
    roomy = SystemConfig(cached=True, cache_mb=limit * 4096 / 2**20)
    assert run_trace(roomy, stream, warmup_ms=0.0).requests == len(stream)


@pytest.mark.parametrize("cache_mb", [0.001, math.nan, math.inf, -1.0])
def test_cache_without_a_whole_block_is_rejected_at_construction(cache_mb):
    with pytest.raises(ValueError, match="cache_mb"):
        SystemConfig(cached=True, cache_mb=cache_mb)
