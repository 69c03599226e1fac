#!/usr/bin/env python3
"""Compare two sets of benchmark records, refusing unlike workloads.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories (or single files) of the records
``run.py`` writes to ``perfbench/out/``.  Records are grouped by
workload and mode (untraced / traced).  Within a group every record of
both sets must carry the same workload identity -- trace, scale, chunk
size, organizations, cached flag, backend, run length, ... -- and the
two sets must cover the same seeds; otherwise the comparison is refused
(exit 2), because a change of workload is not a change of speed.  For
each metric the medians of the two sets are printed with the relative
change; an end-to-end metric that got worse by more than its bound in
``BENCHMARK.json`` is a regression (exit 1).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """``{(workload, trace): [record, ...]}`` from a file or directory."""
    files = [path] if path.is_file() else sorted(path.glob("*.json"))
    groups: dict = {}
    for f in files:
        if f.name.endswith(".spans.json"):
            continue
        rec = json.loads(f.read_text())
        groups.setdefault((rec["identity"]["workload"], rec["trace"]), []).append(rec)
    return groups


def identity_problems(base: list, new: list) -> list[str]:
    """Why the two record lists do not describe the same workload."""

    def strip(ident):
        return {k: v for k, v in ident.items() if k != "seed"}

    ref = strip(base[0]["identity"])
    problems = []
    for rec in base + new:
        ident = strip(rec["identity"])
        for key in sorted(set(ref) | set(ident)):
            if ref.get(key) != ident.get(key):
                problems.append(f"{key}: {ref.get(key)!r} vs {ident.get(key)!r}")
    seeds_a = sorted(str(r["identity"]["seed"]) for r in base)
    seeds_b = sorted(str(r["identity"]["seed"]) for r in new)
    if seeds_a != seeds_b:
        problems.append(f"seeds: {seeds_a} vs {seeds_b}")
    return sorted(set(problems))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text()) if spec_path.is_file() else {}
    bounds = {m["name"]: m for m in spec.get("end_to_end", [])}
    refused = regressed = False
    for key in sorted(set(base) | set(new)):
        label = f"{key[0]} (trace {key[1]})"
        if key not in base or key not in new:
            print(f"REFUSED {label}: present in only one set")
            refused = True
            continue
        problems = identity_problems(base[key], new[key])
        if problems:
            print(f"REFUSED {label}: workload identity differs: " + "; ".join(problems))
            refused = True
            continue
        failed = sum(r["failed"] for r in base[key] + new[key])
        print(f"{label}: {len(base[key])} vs {len(new[key])} runs, {failed} failed cells")
        names = sorted(set().union(*(r["metrics"] for r in base[key] + new[key])))
        for name in names:
            a = statistics.median(r["metrics"][name]["value"] for r in base[key] if name in r["metrics"])
            b = statistics.median(r["metrics"][name]["value"] for r in new[key] if name in r["metrics"])
            change = (b - a) / a if a else 0.0
            verdict = ""
            if name in bounds:
                worse = -change if bounds[name]["better"] == "higher" else change
                if worse > bounds[name]["bound"]:
                    verdict = "REGRESSION"
                    regressed = True
            print(f"  {name:40s} {a:14.6g} -> {b:14.6g} {change:+8.2%} {verdict}")
    if refused:
        return 2
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
