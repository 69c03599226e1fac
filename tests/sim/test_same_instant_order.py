"""Result fingerprints of a small Trace-2 run, with and without
synchronized spindles, pinned.

With random spindle phases two disk accesses practically never finish
at the same float instant.  With ``spindle_sync=True`` every disk has
phase 0, so the start of a transfer snaps to the same sector angle on
every disk and same-instant completions are common; their order feeds
the FIFO channel and buffer queues.  The synchronized fingerprints
therefore pin the kernel's same-instant order: a disk access completes
in ``(time, seq)`` order with ``seq`` taken when its service began (see
DESIGN.md §12, "One wake-up per access").  A change to that order moves
the ``True`` rows and leaves the ``False`` rows alone.
"""

import pytest

from repro.sim import SystemConfig, run_trace
from repro.trace import generate_trace, trace2_config
from repro.validate.replay import result_fingerprint

FINGERPRINTS = {
    ("base", False): "240cf1eebc5c8951d0da1f8d36f1dc9a54f6cc6ccaf5c6e2ae223972dc88d85e",
    ("base", True): "4b271144a944775f2eb2b71a59f8ddaf8caa0a11faa6e58c45a426b2b5f78a36",
    ("mirror", False): "b21e864c54ae258e3792fc341b43dbcb987931c09d18f0c31259c1d4cc994e68",
    ("mirror", True): "0471deff25047462dff72b1bd242b63b6513f0b19d505a29beb73f69a7bbbab8",
    ("raid5", False): "2fb5cb0d019f30a63c2cea36d0a22dc6773497bde0a26c1f0b9db857814fc49a",
    ("raid5", True): "4268a52d98337a6fb4a18a0fdc5a6e23031e8c1afe3312cd5c4b9c0242990200",
    ("parity_striping", False): "ac6889c8068d3a45a2beef9bcc598397f6d6410402d41ae0dd76c54a8124091f",
    ("parity_striping", True): "7a64af85d646fe79ce24e0dc88c2985355698a2827b22519fa72ba36509070ec",
}


@pytest.fixture(scope="module")
def trace():
    return generate_trace(trace2_config(0.01))


@pytest.mark.parametrize("org,spindle_sync", sorted(FINGERPRINTS))
def test_fingerprint(trace, org, spindle_sync):
    config = SystemConfig(organization=org, spindle_sync=spindle_sync)
    result = run_trace(config, trace, warmup_ms=0.0)
    assert result_fingerprint(result) == FINGERPRINTS[org, spindle_sync]
