"""Golden-snapshot regression support.

A *snapshot* is a JSON-able digest of a :class:`~repro.sim.results.
RunResult`: run metadata, the response-time tallies (count, mean,
min/max, selected percentiles) and every per-array counter.  Snapshots
are stored under ``tests/golden/`` and compared with
:func:`diff_snapshots`, which treats integers exactly and floats with a
configurable tolerance — so a golden test distinguishes "the simulator
changed behaviour" from "floating-point noise".

Regenerate fixtures with ``pytest --regen-golden`` after an intentional
behaviour change, and eyeball the diff before committing it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

__all__ = [
    "GoldenMismatch",
    "snapshot",
    "diff_snapshots",
    "compare_snapshots",
    "save_snapshot",
    "load_snapshot",
]

#: Percentiles recorded for each tally.
_PERCENTILES = (50, 90, 95, 99)


class GoldenMismatch(AssertionError):
    """An actual run diverged from its golden snapshot."""

    def __init__(self, diffs: list[str]) -> None:
        shown = "\n  ".join(diffs[:20])
        more = f"\n  ... and {len(diffs) - 20} more" if len(diffs) > 20 else ""
        super().__init__(f"{len(diffs)} field(s) diverged from golden:\n  {shown}{more}")
        self.diffs = diffs


def _tally_snapshot(tally, include_samples: bool) -> dict:
    out = {
        "count": tally.count,
        "mean": tally.mean,
        "min": tally.min if tally.count else None,
        "max": tally.max if tally.count else None,
    }
    if tally.count:
        for q in _PERCENTILES:
            out[f"p{q}"] = tally.percentile(q)
    if include_samples:
        out["samples"] = [float(s) for s in tally.samples]
    return out


def snapshot(result, include_samples: bool = False) -> dict:
    """A JSON-able digest of *result*.

    With ``include_samples=True`` every response-time observation is
    recorded verbatim — useful for bit-exact replay fingerprints, too
    bulky for committed golden files.
    """
    out = {
        "meta": {
            "name": result.name,
            "organization": result.organization,
            "n": result.n,
            "narrays": result.narrays,
            "simulated_ms": result.simulated_ms,
            "warmup_ms": result.warmup_ms,
            "requests": result.requests,
        },
        "response": _tally_snapshot(result.response, include_samples),
        "read_response": _tally_snapshot(result.read_response, include_samples),
        "write_response": _tally_snapshot(result.write_response, include_samples),
        "arrays": [
            {
                "disk_accesses": [int(x) for x in a.disk_accesses],
                "disk_utilization": [float(x) for x in a.disk_utilization],
                "channel_utilization": float(a.channel_utilization),
                "read_hits": a.read_hits,
                "read_misses": a.read_misses,
                "write_hits": a.write_hits,
                "write_misses": a.write_misses,
                "sync_writebacks": a.sync_writebacks,
                "destaged_blocks": a.destaged_blocks,
            }
            for a in result.arrays
        ],
    }
    # Per-VA tallies and the failure-scenario outcome, only for
    # heterogeneous and failure-injected runs: the sections are added
    # conditionally so every pre-existing fixture (and every legacy
    # run's fingerprint) is untouched by those subsystems' existence.
    va_response = getattr(result, "va_response", None)
    if va_response:
        out["va_response"] = [_tally_snapshot(t, include_samples) for t in va_response]
    report = getattr(result, "failures", None)
    if report is not None:
        out["failures"] = report.to_dict()
    return out


def _walk(expected, actual, path, rtol, atol, diffs) -> None:
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            diffs.append(f"{path}: expected mapping, got {type(actual).__name__}")
            return
        for key in expected:
            if key not in actual:
                diffs.append(f"{path}.{key}: missing")
            else:
                _walk(expected[key], actual[key], f"{path}.{key}", rtol, atol, diffs)
        for key in actual:
            if key not in expected:
                diffs.append(f"{path}.{key}: unexpected")
    elif isinstance(expected, list):
        if not isinstance(actual, list):
            diffs.append(f"{path}: expected list, got {type(actual).__name__}")
            return
        if len(expected) != len(actual):
            diffs.append(f"{path}: length {len(actual)} != {len(expected)}")
            return
        for i, (e, a) in enumerate(zip(expected, actual)):
            _walk(e, a, f"{path}[{i}]", rtol, atol, diffs)
    elif isinstance(expected, bool) or expected is None or isinstance(expected, str):
        if expected != actual:
            diffs.append(f"{path}: {actual!r} != {expected!r}")
    elif isinstance(expected, int) and isinstance(actual, int):
        # Counters are exact: a count that moved is a behaviour change.
        if expected != actual:
            diffs.append(f"{path}: {actual} != {expected}")
    elif isinstance(expected, (int, float)):
        if not isinstance(actual, (int, float)):
            diffs.append(f"{path}: expected number, got {type(actual).__name__}")
        elif math.isnan(expected) and math.isnan(actual):
            pass
        elif not math.isclose(float(actual), float(expected), rel_tol=rtol, abs_tol=atol):
            diffs.append(f"{path}: {actual!r} != {expected!r} (rtol={rtol:g}, atol={atol:g})")
    else:
        if expected != actual:
            diffs.append(f"{path}: {actual!r} != {expected!r}")


def diff_snapshots(expected: dict, actual: dict, rtol: float = 1e-9, atol: float = 1e-9) -> list[str]:
    """Human-readable differences between two snapshots (empty == match).

    Integers (request counts, hits, destaged blocks...) compare exactly;
    floats within ``rtol``/``atol``.  The default tolerances are tight on
    purpose: the simulator is deterministic, so a golden run should
    reproduce its fixture almost bit-exactly on one platform, with the
    tolerance only absorbing cross-platform libm differences.
    """
    diffs: list[str] = []
    _walk(expected, actual, "$", rtol, atol, diffs)
    return diffs


def compare_snapshots(expected: dict, actual: dict, rtol: float = 1e-9, atol: float = 1e-9) -> None:
    """Raise :class:`GoldenMismatch` when the snapshots diverge."""
    diffs = diff_snapshots(expected, actual, rtol=rtol, atol=atol)
    if diffs:
        raise GoldenMismatch(diffs)


def save_snapshot(path: Path, snap: dict) -> None:
    """Write *snap* as deterministic, diff-friendly JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n")


def load_snapshot(path: Path) -> Optional[dict]:
    """Read a snapshot, or ``None`` when the fixture does not exist."""
    path = Path(path)
    if not path.exists():
        return None
    return json.loads(path.read_text())
