#!/usr/bin/env python3
"""Host-time benchmark of the simulator on three pinned workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload uncached-trace2 --seed 7 --seconds 20 --trace 0

``--trace 0`` repeats the workload's fixed work (one *pass*: every cell
once) until ``--seconds`` of host time have elapsed and reports the
end-to-end metrics: ``requests_per_s`` (each cell at its median pass),
``setup_s`` (median over fresh processes that import the program and
build the workload) and ``peak_rss_mb`` (the resident memory that one
pass at the workload's larger memory scale adds to a fresh process with
the program imported and warmed up).  Both times are scaled to a reference host speed
measured next to them (``hostspeed.py``).  ``--trace 1`` repeats
the untraced pass likewise, then makes one pass under the stack sampler,
one under the layer tracer and, on ``uncached-trace2``, runs each cell
with the plan cache on, off, off and on, and reports the per-layer
metrics.

A cell is one organization's ``run_trace`` on a DES workload, or the one
campaign.  Every cell's output is checked: its fingerprint must repeat
on every pass and under tracing and sampling, must equal the stored
reference when one exists for the seed (``reference.json``), and the
events split by origin must sum to ``RunResult.events``.  A cell that
raises or fails a check counts in ``failed``.

The simulated array sees an open loop: requests arrive at the trace's
timestamps whatever the completions.  This process is a fixed-work
batch job; all times are host time, every simulated statistic is an
output that a speed-only change leaves bit-identical.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with
the workload identity lands in ``perfbench/out/`` (see ``compare.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import PROBE_REF_S, HostSpeed
from layers import LAYERS, MAP_METHODS, PLAN_METHODS, LayerMap

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

#: Fresh processes timed for ``setup_s``.
SETUP_PROBES = 5

#: Modules the workloads use.  The memory probe imports them, and runs a
#: warm-up pass at ``1 / WARM_DIVISOR`` of the memory scale, before it
#: takes its baseline: ``peak_rss_mb`` then leaves out the interpreter,
#: the program's code and what the first calls load once, and grows with
#: the work.
PROGRAM_MODULES = (
    "repro.sim",
    "repro.trace",
    "repro.trace.synthetic",
    "repro.validate.replay",
    "repro.experiments.parallel",
    "repro.experiments.registry",
    "repro.experiments.trace_cache",
)
WARM_DIVISOR = 50

ORGS = ("base", "mirror", "raid5", "raid4", "parity_striping")

#: The pinned workloads.  A pass is kept short (about a second) so that a
#: run holds many of them and each cell's median skips the host's short
#: slow spells.  ``memory_scale`` sizes the one pass that ``peak_rss_mb``
#: measures, three times the timed pass.
WORKLOADS = {
    "uncached-trace2": {
        "trace": "trace2",
        "scale": 0.05,
        "memory_scale": 0.15,
        "default_seed": 19932,
        "chunk_requests": 1024,
        "organizations": ["base", "mirror", "raid5", "parity_striping"],
        "cached": False,
        "backend": "des",
    },
    "cached-trace1": {
        "trace": "trace1",
        "scale": 0.001,
        "memory_scale": 0.003,
        "default_seed": 19931,
        "chunk_requests": 1024,
        "organizations": ["raid5", "raid4", "mirror"],
        "cached": True,
        "backend": "des",
    },
    "analytic-campaign": {
        "trace": "trace1+trace2",
        "scale": 0.1,
        "memory_scale": 0.3,
        "default_seed": None,
        "chunk_requests": None,
        "organizations": [],
        "experiments": ["fig5", "fig12"],
        "cached": None,
        "backend": "analytic",
    },
}

#: Layers that schedule simulation events; any other origin counts as
#: ``other``.
EVENT_ORIGINS = ("disk", "channel", "array", "cache", "sim")

#: Per-layer metrics: name, unit, which direction is better.  Printed in
#: this order; ``BENCHMARK.json`` lists the same names.  A metric that
#: does not apply to a workload (an organization it does not run, the
#: kernel on the analytic campaign) reads 0.
LAYER_METRICS = [
    ("des.events_per_req", "count", "lower"),
    *[(f"des.events_per_req.{o}", "count", "lower") for o in EVENT_ORIGINS + ("other",)],
    ("des.events_per_s", "1/s", "higher"),
    ("disk.accesses_per_req", "count", "lower"),
    ("disk.util_mean", "ratio", "lower"),
    ("disk.util_max", "ratio", "lower"),
    ("channel.transfers_per_req", "count", "lower"),
    ("channel.buffer_waits_per_req", "count", "lower"),
    ("channel.util", "ratio", "lower"),
    ("layout.plans_per_req", "count", "lower"),
    ("layout.maps_per_req", "count", "lower"),
    ("array.plan_hit_ratio", "ratio", "higher"),
    ("array.plan_cache_speedup", "ratio", "higher"),
    *[(f"array.requests_per_s.{org}", "1/s", "higher") for org in ORGS],
    ("cache.ops_per_req", "count", "lower"),
    ("cache.read_hit_ratio", "ratio", "higher"),
    ("cache.write_hit_ratio", "ratio", "higher"),
    ("cache.destaged_blocks_per_req", "count", "lower"),
    ("cache.sync_writebacks_per_req", "count", "lower"),
    ("cache.fastsim_s", "s", "lower"),
    ("sim.build_s", "s", "lower"),
    ("trace.gen_requests_per_s", "1/s", "higher"),
    ("analytic.points", "count", "higher"),
    ("analytic.decompose_s", "s", "lower"),
    ("analytic.solve_s", "s", "lower"),
    ("experiments.trace_cache_hit_ratio", "ratio", "higher"),
    ("experiments.self_s", "s", "lower"),
    *[(f"{layer}.self_us_per_req", "us", "lower") for layer in LAYERS],
    *[(f"{layer}.sampled_share", "ratio", "lower") for layer in LAYERS + ("other",)],
    ("bench.tracing_overhead", "ratio", "lower"),
    ("bench.host_speed", "ratio", "higher"),
    ("bench.failed_fraction", "ratio", "lower"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="trace generator seed (default: the paper-calibrated one)")
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import and build the workload, print the wall clock, exit")
    p.add_argument("--memory-probe", action="store_true",
                   help="run one pass at the memory scale, print the memory it added")
    p.add_argument("--write-reference", action="store_true",
                   help="run one pass and store its fingerprints for this seed")
    return p.parse_args(argv)


# -- workloads -------------------------------------------------------------------


class Cell:
    """One unit of fixed work: a ``run_trace`` call or the campaign.

    ``run(**overrides)`` does the timed work; ``fingerprint(output)``
    digests its output outside the timed region; ``sanity(output)``
    returns ``[(ok, why)]`` checks that hold for any seed.
    """

    def __init__(self, label, requests, run, fingerprint, sanity=None):
        self.label = label
        self.requests = requests
        self.run = run
        self.fingerprint = fingerprint
        self.sanity = sanity


class DesWorkload:
    """A synthetic trace stream fed through each organization."""

    def __init__(self, spec: dict, seed: int, scale: float) -> None:
        from repro.sim import Organization, SystemConfig, run_trace
        from repro.trace import trace1_config, trace2_config
        from repro.trace.synthetic import TraceStream
        from repro.validate.replay import result_fingerprint

        make = {"trace1": trace1_config, "trace2": trace2_config}[spec["trace"]]
        cfg = dataclasses.replace(make(scale), seed=seed)
        self.stream = TraceStream(cfg, chunk_requests=spec["chunk_requests"])
        self.warmup_ms = 0.1 * cfg.duration_ms
        self._run_trace = run_trace
        self.configs = {
            org: SystemConfig(
                organization=Organization.parse(org),
                n=10,
                cached=spec["cached"],
                cache_mb=16.0,
                parity_caching=True,
            )
            for org in spec["organizations"]
        }
        self.requests = len(self.stream)
        self.cells = [
            Cell(org, self.requests, self._runner(org), result_fingerprint, self._sanity)
            for org in self.configs
        ]
        self.identity_extra = {
            "n": 10,
            "cache_mb": 16.0 if spec["cached"] else None,
            "warmup_ms": self.warmup_ms,
            "requests_per_cell": self.requests,
        }

    def _runner(self, org):
        def run(**overrides):
            config = self.configs[org]
            if overrides:
                config = dataclasses.replace(config, **overrides)
            return self._run_trace(config, self.stream, warmup_ms=self.warmup_ms)

        return run

    def _sanity(self, result) -> list:
        return [
            (result.requests == self.requests,
             f"{result.requests} requests != {self.requests}"),
            (result.response.count > 0, "no response observed after warm-up"),
            (result.simulated_ms > self.warmup_ms, "run ended inside the warm-up window"),
        ]


class CampaignWorkload:
    """``run_campaign(fig5, fig12)`` on the analytic backend, serially."""

    def __init__(self, spec: dict, scale: float) -> None:
        from repro.experiments import trace_cache
        from repro.experiments.parallel import run_campaign
        from repro.experiments.registry import get_experiment
        from repro.trace import trace1_config, trace2_config

        self.trace_cache = trace_cache
        self.exp_ids = list(spec["experiments"])
        self.experiments = [get_experiment(e) for e in self.exp_ids]
        self.scale = scale
        self._run_campaign = run_campaign
        self.requests = None  # counted after the timed passes
        self.cells = [Cell("campaign", None, self._run, self._digest)]
        self.identity_extra = {
            "seeds": [trace1_config().seed, trace2_config().seed],
            "jobs": 1,
        }

    def _run(self):
        # Each pass starts with the in-process trace LRU empty, as a
        # fresh campaign process would.
        self.trace_cache.clear_memory_cache()
        return self._run_campaign(self.exp_ids, scale=self.scale, backend="analytic", jobs=1)

    @staticmethod
    def _digest(out) -> str:
        """SHA-256 over the campaign's ``ExperimentResult.to_dict()`` output."""
        payload = {k: [r.to_dict() for r in v] for k, v in sorted(out.items())}
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    def count_requests(self) -> None:
        """Count the trace requests the campaign's points evaluate (a fixed
        number; done after the timed passes, which it would warm)."""
        self.requests = self.cells[0].requests = sum(
            len(point.spec.materialize())
            for exp in self.experiments
            for point in exp.points(self.scale)
        )


def make_workload(name: str, seed, scale=None):
    """The workload at its timed scale, or at *scale*."""
    spec = WORKLOADS[name]
    scale = spec["scale"] if scale is None else scale
    if spec["backend"] == "analytic":
        return CampaignWorkload(spec, scale)
    return DesWorkload(spec, seed, scale)


def identity(name: str, seed, seconds: float, workload) -> dict:
    spec = WORKLOADS[name]
    out = {
        "workload": name,
        "trace": spec["trace"],
        "scale": spec["scale"],
        "memory_scale": spec["memory_scale"],
        "seed": seed,
        "chunk_requests": spec["chunk_requests"],
        "organizations": spec["organizations"],
        "cached": spec["cached"],
        "backend": spec["backend"],
        "seconds": seconds,
    }
    if "experiments" in spec:
        out["experiments"] = spec["experiments"]
    out.update(workload.identity_extra)
    return out


# -- running and checking -----------------------------------------------------------


class Checks:
    """Counts attempted/failed cells and remembers each cell's fingerprint."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.fingerprints: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {why}")
        print(f"FAILED {label}: {why}", file=sys.stderr)

    def cell(self, label: str, fingerprint: str, extra_checks=()) -> bool:
        """Record one finished cell; ``False`` if any check failed."""
        first = self.fingerprints.setdefault(label, fingerprint)
        if fingerprint != first:
            self.fail(label, f"fingerprint {fingerprint[:12]} differs from first pass {first[:12]}")
            return False
        want = self.reference.get(label)
        if want is not None and fingerprint != want:
            self.fail(label, f"fingerprint {fingerprint[:12]} != reference {want[:12]}")
            return False
        for ok, why in extra_checks:
            if not ok:
                self.fail(label, why)
                return False
        return True


def run_cell(cell: Cell, checks: Checks, host=None, extra=None, **overrides):
    """Run *cell* once.  Returns ``(seconds, output)``, or ``None`` if it
    raised or failed a check.  With a :class:`HostSpeed` *host*, the
    seconds are scaled to the reference host speed.

    ``extra(output)`` adds ``[(ok, why)]`` checks to the cell's own.
    """
    checks.attempted += 1
    gc.collect()
    t0 = time.perf_counter()
    try:
        output = cell.run(**overrides)
        seconds = time.perf_counter() - t0
        fingerprint = cell.fingerprint(output)
    except Exception:  # a cell boundary: report and keep measuring the others
        checks.fail(cell.label, "raised\n" + traceback.format_exc())
        return None
    if host is not None:
        seconds = host.scale(seconds)
    extra_checks = list(cell.sanity(output)) if cell.sanity is not None else []
    if extra is not None:
        extra_checks.extend(extra(output))
    if not checks.cell(cell.label, fingerprint, extra_checks):
        return None
    return seconds, output


def run_pass(workload, checks: Checks, host=None, wrap=None, **overrides):
    """Every cell once.  Returns ``[(cell, seconds, output)]`` of the cells
    that passed their checks."""
    out = []
    for cell in workload.cells:
        if wrap is None:
            done = run_cell(cell, checks, host, **overrides)
        else:
            done = wrap(cell)
        if done is not None:
            out.append((cell, done[0], done[1]))
    return out


def measure_setup(args, host) -> float:
    """Median time, at the reference host speed, from spawning a fresh
    interpreter to the end of its workload set-up (imports, trace
    config, stream, configs)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--setup-probe"]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        samples.append(host.scale(float(done.stdout.split()[-1]) - t0))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """This process's own peak resident memory (``VmHWM``).  Not
    ``ru_maxrss``: Linux carries the parent's peak over into a child
    across ``exec``, so in the memory probe it would start at the
    benchmark process's peak."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def memory_probe(name: str, seed) -> int:
    """The child of :func:`measure_memory`: import the program, warm it up,
    build the workload at its memory scale, run one checked pass, and
    print as JSON the peak resident memory (MB) that the building and the
    pass added."""
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    scale = WORKLOADS[name]["memory_scale"]
    checks = Checks({})
    run_pass(make_workload(name, seed, scale / WARM_DIVISOR), checks)
    checks.fingerprints.clear()  # the warm-up's outputs differ from the pass's
    gc.collect()
    base = peak_rss_mb()
    run_pass(make_workload(name, seed, scale), checks)
    print(json.dumps({
        "peak_mb": peak_rss_mb() - base,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
    }))
    return 0


def measure_memory(args, checks: Checks) -> float:
    """``peak_rss_mb``: the memory one pass at the workload's memory scale
    adds to a fresh process that has the program imported and warmed up.
    The probe's cells count in *checks*."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--memory-probe"]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"memory probe failed:\n{done.stderr}")
    probe = json.loads(done.stdout.splitlines()[-1])
    checks.attempted += probe["attempted"]
    checks.failed += probe["failed"]
    checks.problems.extend(f"memory pass: {why}" for why in probe["problems"])
    return probe["peak_mb"]


# -- the two modes -------------------------------------------------------------------


def timed_passes(workload, checks: Checks, host, seconds: float):
    """Repeat the workload's pass until *seconds* have elapsed, at least
    once.  Returns each cell's median time at the reference host speed
    (see ``hostspeed.py``) and the first pass."""
    times: dict = {cell.label: [] for cell in workload.cells}
    first = None
    t_start = time.perf_counter()
    while first is None or time.perf_counter() - t_start < seconds:
        done = run_pass(workload, checks, host)
        if len(done) != len(workload.cells):
            break
        first = first or done
        for cell, spent, _ in done:
            times[cell.label].append(spent)
    if isinstance(workload, CampaignWorkload):
        workload.count_requests()
    medians = {label: statistics.median(t) for label, t in times.items() if t}
    return medians, first or [], times


def untraced_run(args, workload, checks: Checks, host) -> tuple[dict, dict]:
    setup_s = measure_setup(args, host)
    medians, first, times = timed_passes(workload, checks, host, args.seconds)
    requests = sum(cell.requests for cell in workload.cells)
    metrics = {
        "requests_per_s": (requests / sum(medians.values()) if first else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (measure_memory(args, checks), "MB"),
    }
    detail = {
        "cell_seconds": times,
        "requests_per_pass": requests,
        "host_speed": PROBE_REF_S / statistics.median(host.samples),
    }
    return metrics, detail


def traced_run(args, workload, checks: Checks, host, layer_map) -> tuple[dict, dict]:
    from layers import LayerTracer
    from sampler import StackSampler

    is_des = isinstance(workload, DesWorkload)
    m = dict.fromkeys((name for name, _, _ in LAYER_METRICS), 0.0)

    # 1. untraced passes, timed as in an untraced run
    medians, plain, _ = timed_passes(workload, checks, host, args.seconds)
    plain_s = sum(medians.values())
    n_req = sum(cell.requests for cell in workload.cells)

    # 2. the same pass under the stack sampler; the campaign's trace-cache
    # lookups are counted over exactly this one pass
    cache_stats0 = None if is_des else workload.trace_cache.stats()
    with StackSampler(layer_map) as sampler:
        run_pass(workload, checks)
    if cache_stats0 is not None:
        delta = workload.trace_cache.stats().delta(cache_stats0)
        m["experiments.trace_cache_hit_ratio"] = delta.hit_ratio if delta.lookups else 0.0
    for layer, share in sampler.shares().items():
        m[f"{layer}.sampled_share"] = share

    # 3. the same pass under the layer tracer
    tracer = LayerTracer(layer_map)
    events_by_origin: dict = {}
    events_total = 0
    top = ("run_trace", "sim") if is_des else ("run_campaign", "experiments")

    def origin_check(result):
        split = sum(tracer.origins.values())
        return [(split == result.events,
                 f"events split by origin sum to {split}, RunResult.events is {result.events}")]

    def traced_cell(cell):
        nonlocal events_total
        tracer.reset_origins()
        spanned = Cell(cell.label, cell.requests, tracer.wrap_call(cell.run, *top),
                       cell.fingerprint, cell.sanity)
        done = run_cell(spanned, checks, host, extra=origin_check if is_des else None)
        if done is not None and is_des:
            events_total += done[1].events
            for origin, count in tracer.origins.items():
                events_by_origin[origin] = events_by_origin.get(origin, 0) + count
        return done

    with tracer:
        traced = run_pass(workload, checks, wrap=traced_cell)
    traced_s = sum(spent for _, spent, _ in traced)
    m["bench.tracing_overhead"] = traced_s / plain_s if plain_s else 0.0

    # 4. plan-cache ablation on the uncached workload: per cell, on/off/
    # off/on, so that drift of the host's speed cancels out
    if is_des and not workload.configs[workload.cells[0].label].cached:
        spent = {True: 0.0, False: 0.0}
        for cell in workload.cells:
            for enabled in (True, False, False, True):
                done = run_cell(cell, checks, host, plan_cache=enabled)
                if done is not None:
                    spent[enabled] += done[0]
        if spent[True]:
            m["array.plan_cache_speedup"] = spent[False] / spent[True]

    # -- metrics ----------------------------------------------------------------
    per_req = 1.0 / n_req
    self_s = tracer.layer_self()
    for layer in LAYERS:
        m[f"{layer}.self_us_per_req"] = self_s.get(layer, 0.0) * 1e6 * per_req
    m["experiments.self_s"] = self_s.get("experiments", 0.0)
    m["des.events_per_req"] = events_total * per_req
    for origin, count in events_by_origin.items():
        key = origin if origin in EVENT_ORIGINS else "other"
        m[f"des.events_per_req.{key}"] += count * per_req
    if is_des and plain_s:
        m["des.events_per_s"] = sum(r.events for _, _, r in plain) / plain_s
    m["disk.accesses_per_req"] = tracer.count("Disk.submit") * per_req
    m["channel.transfers_per_req"] = tracer.count("Channel.transfer") * per_req
    # An acquire that waits is resumed twice (start, grant); one that
    # does not is resumed once.
    acquires = tracer.count("TrackBufferPool.acquire")
    m["channel.buffer_waits_per_req"] = (
        tracer.resumes("TrackBufferPool.acquire") - acquires
    ) * per_req
    m["layout.plans_per_req"] = tracer.calls_in("layout", methods=PLAN_METHODS) * per_req
    m["layout.maps_per_req"] = tracer.calls_in("layout", methods=MAP_METHODS) * per_req
    m["cache.ops_per_req"] = tracer.calls_in("cache", classes=("LRUCache",)) * per_req
    m["cache.fastsim_s"] = tracer.inclusive("simulate_hit_ratios")
    m["sim.build_s"] = tracer.inclusive("build_system")
    generated = tracer.returned_len("generate_trace") + (
        tracer.count("TraceStream.chunks") * workload.requests if is_des else 0
    )
    gen_s = tracer.inclusive("generate_trace") + tracer.inclusive("TraceStream.chunks")
    m["trace.gen_requests_per_s"] = generated / gen_s if gen_s else 0.0
    m["analytic.points"] = tracer.count("solve_trace")
    m["analytic.decompose_s"] = tracer.inclusive("decompose")
    m["analytic.solve_s"] = tracer.inclusive("solve_trace") - tracer.inclusive("decompose")

    results = [r for _, _, r in plain] if is_des else []
    if results:
        arrays = [a for r in results for a in r.arrays]
        utils = [float(u) for a in arrays for u in a.disk_utilization]
        m["disk.util_mean"] = statistics.fmean(utils)
        m["disk.util_max"] = max(utils)
        m["channel.util"] = statistics.fmean(float(a.channel_utilization) for a in arrays)
        hits = sum(a.plan_hits for a in arrays)
        misses = sum(a.plan_misses for a in arrays)
        m["array.plan_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        rh = sum(a.read_hits for a in arrays)
        rm = sum(a.read_misses for a in arrays)
        wh = sum(a.write_hits for a in arrays)
        wm = sum(a.write_misses for a in arrays)
        m["cache.read_hit_ratio"] = rh / (rh + rm) if rh + rm else 0.0
        m["cache.write_hit_ratio"] = wh / (wh + wm) if wh + wm else 0.0
        m["cache.destaged_blocks_per_req"] = sum(a.destaged_blocks for a in arrays) * per_req
        m["cache.sync_writebacks_per_req"] = sum(a.sync_writebacks for a in arrays) * per_req
    for cell in workload.cells:
        if cell.label in ORGS and cell.label in medians:
            m[f"array.requests_per_s.{cell.label}"] = cell.requests / medians[cell.label]
    m["bench.host_speed"] = PROBE_REF_S / statistics.median(host.samples)

    unknown = set(m) - {name for name, _, _ in LAYER_METRICS}
    if unknown:
        raise RuntimeError(f"metrics missing from LAYER_METRICS: {sorted(unknown)}")
    metrics = {name: (m[name], unit) for name, unit, _ in LAYER_METRICS}
    detail = {
        "events_by_origin": events_by_origin,
        "sampler_samples": sampler.samples,
        "plain_s": plain_s,
        "traced_s": traced_s,
        "spans": tracer.spans(),
        "traced_cells": len(traced),
    }
    return metrics, detail


# -- entry point -------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The campaign's on-disk trace cache and result store stay off: the
    # benchmark reads and writes nothing outside its checkout, and every
    # pass computes what it reports.
    os.environ["REPRO_TRACE_CACHE"] = "off"
    os.environ["REPRO_RESULT_STORE"] = "off"
    spec = WORKLOADS[args.workload]
    seed = args.seed if args.seed is not None else spec["default_seed"]
    if spec["default_seed"] is None:
        seed = None  # registry experiments take no seed; identity lists theirs

    if args.memory_probe:
        return memory_probe(args.workload, seed)
    workload = make_workload(args.workload, seed)
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(time.time()))
        return 0

    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    ref_key = "campaign" if seed is None else str(seed)
    checks = Checks(references.get(args.workload, {}).get(ref_key, {}))

    if args.write_reference:
        checks.reference = {}
        run_pass(workload, checks)
        if checks.failed:
            return 1
        references.setdefault(args.workload, {})[ref_key] = checks.fingerprints
        REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
        print(f"stored {len(checks.fingerprints)} fingerprints for {args.workload} seed {ref_key}")
        return 0

    # One CPU for this process and its children (the host-speed probe,
    # the set-up probes): the probe then measures the CPU the cells run on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with HostSpeed() as host:
        if args.trace:
            metrics, detail = traced_run(args, workload, checks, host,
                                         LayerMap(str(SRC / "repro")))
        else:
            metrics, detail = untraced_run(args, workload, checks, host)
    attempted = max(checks.attempted, 1)
    failed_fraction = checks.failed / attempted
    if args.trace:
        metrics["bench.failed_fraction"] = (failed_fraction, "ratio")

    ident = identity(args.workload, seed, args.seconds, workload)
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "identity": ident,
        "trace": args.trace,
        "correct": checks.failed == 0,
        "attempted": attempted,
        "failed": checks.failed,
        "failed_fraction": failed_fraction,
        "problems": checks.problems,
        "fingerprints": checks.fingerprints,
        "reference_checked": bool(checks.reference),
        "metrics": values,
        "detail": {k: v for k, v in detail.items() if k != "spans"},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{ref_key}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if "spans" in detail:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(detail["spans"]) + "\n")

    print("identity " + json.dumps(ident, sort_keys=True))
    print(f"{'failed_fraction':40s} {failed_fraction:.6g} ratio ({checks.failed}/{attempted} cells)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": attempted,
        "failed": checks.failed,
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
