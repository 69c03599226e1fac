"""Outside-in layer tracing for the benchmark's traced run.

:class:`LayerTracer` patches, for the duration of a ``with`` block, the
calls by which one layer of ``repro`` enters the next: the kernel's
``Environment.run/schedule/timeout/process``, ``Disk.submit``,
``Channel.transfer``, the track-buffer pool, each concrete layout's
plans (``read_runs``/``write_plan``) and block maps (``map_block``,
``map_blocks``, ``parity_of``, ``logical_of``, which cached controllers
and the plan cache call directly), each controller's ``handle``, the LRU and
parity-cache public methods, and the module-level entry points
(``build_system``, ``generate_trace``, ``simulate_hit_ratios``,
``decompose``, ``solve_trace``, ``run_point``).  Nothing under ``src/``
is edited: classes get their attribute replaced and every ``repro``
module namespace that holds a patched function gets the wrapper, and
both are restored on exit.

Accounting.  Every wrapped call is a span on one stack.  A span's
duration minus the durations of the spans nested in it is its *self*
time, charged to the span's layer.  Generators (controller handlers,
channel transfers, every simulation process) are wrapped so that each
resume is a span of the layer the generator's code lives in; the kernel
loop's own time is therefore ``Environment.run`` minus everything it
resumes.  Call counts are taken at the same boundaries.

Event origins.  Each event the kernel schedules (``Environment.schedule``
and the ``Environment.timeout`` freelist lane, which bypasses
``schedule``) is charged to the first ``repro`` frame outside ``des`` on
the stack.  When the kernel schedules an event while resuming a process
(the process's termination), no such frame is in between, and the event
is charged to the layer of the process being resumed.  A condition the
kernel loop triggers while dispatching callbacks is charged to the
caller of ``Environment.run`` (the runner, ``sim``).
"""

from __future__ import annotations

import inspect
import os
import sys
import time
import types
from array import array

#: The ``repro`` subpackages that have spans, in report order.
LAYERS = (
    "des",
    "disk",
    "channel",
    "layout",
    "array",
    "cache",
    "sim",
    "trace",
    "analytic",
    "experiments",
)

#: Layout methods that plan a request, and those that map single blocks.
PLAN_METHODS = ("read_runs", "write_plan")
MAP_METHODS = ("map_block", "map_blocks", "parity_of", "logical_of")

#: Raw spans kept in memory for the span dump; later ones are only
#: aggregated.
SPAN_CAP = 50_000

_HERE = os.path.dirname(os.path.abspath(__file__))


class LayerMap:
    """Maps code objects to the ``repro`` subpackage they belong to."""

    def __init__(self, repro_dir: str) -> None:
        self._prefix = os.path.abspath(repro_dir) + os.sep
        self._cache: dict = {}

    def of_file(self, filename: str):
        """``"disk"`` for ``.../repro/disk/drive.py``; ``"bench"`` for
        this benchmark's own files; ``None`` for anything else."""
        layer = self._cache.get(filename)
        if layer is None and filename not in self._cache:
            if filename.startswith(self._prefix):
                top = filename[len(self._prefix):].split(os.sep, 1)[0]
                layer = top[:-3] if top.endswith(".py") else top
            elif filename.startswith(_HERE + os.sep):
                layer = "bench"
            self._cache[filename] = layer
        return layer


def _traced_gen(tracer, nid, gen, proc_layer=None):
    """Resume *gen* inside a span per resume; a transparent delegate.

    ``proc_layer`` is set for the outermost generator of a simulation
    process: it records which layer the kernel is resuming, for the
    attribution of events the kernel schedules on the process's behalf.
    """
    enter = tracer._enter
    leave = tracer._leave
    value = None
    exc = None
    while True:
        if proc_layer is not None:
            tracer.proc_layer = proc_layer
        enter(nid)
        try:
            event = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            leave()
        try:
            value = yield event
            exc = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as error:  # forwarded into the wrapped generator
            exc = error


_TRACED_CODE = _traced_gen.__code__


def _named(wrapper, gen):
    wrapper.__name__ = gen.__name__
    wrapper.__qualname__ = gen.__qualname__
    return wrapper


def _innermost(gen):
    """The generator a chain of :func:`_traced_gen` delegates wraps."""
    while gen.gi_code is _TRACED_CODE and gen.gi_frame is not None:
        gen = gen.gi_frame.f_locals["gen"]
    return gen


class LayerTracer:
    """Span stack, per-layer self time, boundary counts, event origins.

    Use as ``with LayerTracer(layer_map) as tracer: ...``; read the
    aggregates afterwards.  Raw spans (name, start, end, parent) are kept
    in memory up to :data:`SPAN_CAP` and returned by :meth:`spans`.
    """

    def __init__(self, layer_map: LayerMap) -> None:
        self.layer_map = layer_map
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.calls: list[int] = []
        self.entered: list[int] = []
        self.returned: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.origins: dict[str, int] = {}
        self.proc_layer = "sim"
        self.spans_seen = 0
        self._raw = array("d")
        self._stack: list = []
        self._ids: dict = {}
        self._patches: list = []
        self._in_timeout = False
        self._resume_code = None

    # -- span stack ---------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self.calls.append(0)
            self.entered.append(0)
            self.returned.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def _enter(self, nid: int) -> None:
        stack = self._stack
        self.entered[nid] += 1
        sid = self.spans_seen
        self.spans_seen = sid + 1
        parent = stack[-1][3] if stack else -1
        stack.append([nid, time.perf_counter(), 0.0, sid, parent])

    def _leave(self) -> None:
        t1 = time.perf_counter()
        nid, t0, child, sid, parent = self._stack.pop()
        dur = t1 - t0
        self.total[nid] += dur
        self.self_time[nid] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if sid < SPAN_CAP:
            self._raw.extend((nid, t0, t1, parent))

    def spans(self) -> dict:
        """The kept raw spans, column-wise, with the name table."""
        raw = self._raw
        return {
            "names": self.names,
            "layers": self.name_layer,
            "kept": len(raw) // 4,
            "seen": self.spans_seen,
            "name": [int(x) for x in raw[0::4]],
            "start_s": list(raw[1::4]),
            "end_s": list(raw[2::4]),
            "parent": [int(x) for x in raw[3::4]],
        }

    # -- aggregates -----------------------------------------------------------
    def layer_self(self) -> dict:
        """Self seconds per layer."""
        out = dict.fromkeys(LAYERS, 0.0)
        for layer, t in zip(self.name_layer, self.self_time):
            out[layer] = out.get(layer, 0.0) + t
        return out

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def returned_len(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.returned[nid]

    def inclusive(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total[nid]

    def resumes(self, name: str) -> int:
        """Resumes of the generators returned by calls of *name*."""
        nid = self._ids.get(name)
        return 0 if nid is None else self.entered[nid] - self.calls[nid]

    def calls_in(self, layer: str, classes=None, methods=None) -> int:
        """Calls of the ``Class.method`` spans in *layer*, optionally only
        those whose class is in *classes* and whose method is in *methods*."""
        total = 0
        for n, lay, c in zip(self.names, self.name_layer, self.calls):
            cls, _, method = n.rpartition(".")
            if (lay == layer and (classes is None or cls in classes)
                    and (methods is None or method in methods)):
                total += c
        return total

    def reset_origins(self) -> None:
        self.origins = {}

    # -- origin attribution -----------------------------------------------------
    def _origin(self) -> str:
        of_file = self.layer_map.of_file
        resume = self._resume_code
        f = sys._getframe(2)
        while f is not None:
            code = f.f_code
            if code is resume:
                return self.proc_layer
            layer = of_file(code.co_filename)
            if layer is not None and layer != "des" and layer != "bench":
                return layer
            f = f.f_back
        return "other"

    # -- patching ----------------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def wrap_method(self, cls, attr: str, layer: str) -> None:
        """Span every call of ``cls.attr``; a returned generator is
        spanned per resume under the same name."""
        fn = cls.__dict__[attr]
        self._set(cls, attr, self._wrapper(fn, f"{cls.__name__}.{attr}", layer))

    def wrap_function(self, fn, layer: str, sized: bool = False) -> None:
        """Replace *fn* in every loaded ``repro`` module namespace.

        ``sized`` adds ``len()`` of each result to :attr:`returned`.
        """
        wrapper = self._wrapper(fn, fn.__name__, layer, sized)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)

    def wrap_call(self, fn, name: str, layer: str):
        """A spanned stand-in for *fn* (the benchmark's own top-level calls)."""
        return self._wrapper(fn, name, layer)

    def _wrapper(self, fn, name: str, layer: str, sized: bool = False):
        nid = self.name_id(name, layer)
        returned = self.returned
        tracer = self
        calls = self.calls
        enter = self._enter
        leave = self._leave
        gen_type = types.GeneratorType

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave()
            if type(result) is gen_type:
                result = _named(_traced_gen(tracer, nid, result), result)
            elif sized:
                returned[nid] += len(result)
            return result

        return wrapper

    def _patch_kernel(self) -> None:
        from repro.des import Environment
        from repro.des.process import Process

        self._resume_code = Process._resume.__code__
        tracer = self
        calls = self.calls
        enter = self._enter
        leave = self._leave
        of_file = self.layer_map.of_file

        schedule = Environment.schedule
        nid_schedule = self.name_id("Environment.schedule", "des")

        def traced_schedule(env, event, delay=0.0):
            calls[nid_schedule] += 1
            if not tracer._in_timeout:
                origin = tracer._origin()
                tracer.origins[origin] = tracer.origins.get(origin, 0) + 1
            enter(nid_schedule)
            try:
                schedule(env, event, delay)
            finally:
                leave()

        timeout = Environment.timeout
        nid_timeout = self.name_id("Environment.timeout", "des")

        def traced_timeout(env, delay, value=None):
            # Exactly one event per call, whether it comes from the
            # freelist (no schedule() call) or a fresh Timeout.
            calls[nid_timeout] += 1
            origin = tracer._origin()
            tracer.origins[origin] = tracer.origins.get(origin, 0) + 1
            tracer._in_timeout = True
            enter(nid_timeout)
            try:
                return timeout(env, delay, value)
            finally:
                leave()
                tracer._in_timeout = False

        process = Environment.process
        nid_process = self.name_id("Environment.process", "des")
        resume_ids: dict = {}

        def traced_process(env, generator):
            calls[nid_process] += 1
            layer = of_file(_innermost(generator).gi_code.co_filename) or "other"
            nid = resume_ids.get(layer)
            if nid is None:
                nid = resume_ids[layer] = tracer.name_id(f"process[{layer}]", layer)
            generator = _named(_traced_gen(tracer, nid, generator, layer), generator)
            enter(nid_process)
            try:
                return process(env, generator)
            finally:
                leave()

        self._set(Environment, "schedule", traced_schedule)
        self._set(Environment, "timeout", traced_timeout)
        self._set(Environment, "process", traced_process)
        self.wrap_method(Environment, "run", "des")

    def _patch_layers(self) -> None:
        import repro.array  # loads every controller and layout subclass
        import repro.layout
        from repro.analytic.decompose import decompose
        from repro.analytic.solver import solve_trace
        from repro.array.controller import ArrayController
        from repro.cache.fastsim import simulate_hit_ratios
        from repro.cache.lru import LRUCache
        from repro.cache.paritycache import ParityCacheQueue
        from repro.channel.bus import Channel
        from repro.channel.trackbuffer import TrackBufferPool
        from repro.disk.drive import Disk
        from repro.experiments.points import run_point
        from repro.layout.common import Layout
        from repro.sim.system import build_system
        from repro.trace.synthetic import TraceStream, generate_trace

        self.wrap_method(Disk, "submit", "disk")
        self.wrap_method(Channel, "transfer", "channel")
        self.wrap_method(TrackBufferPool, "acquire", "channel")
        self.wrap_method(TrackBufferPool, "release", "channel")
        for cls in _subclasses(Layout):
            for attr in PLAN_METHODS + MAP_METHODS:
                if attr in cls.__dict__ and not getattr(cls.__dict__[attr], "__isabstractmethod__", False):
                    self.wrap_method(cls, attr, "layout")
        for cls in _subclasses(ArrayController):
            if "handle" in cls.__dict__ and not getattr(cls.__dict__["handle"], "__isabstractmethod__", False):
                self.wrap_method(cls, "handle", "array")
        for cls in (LRUCache, ParityCacheQueue):
            for attr, value in list(cls.__dict__.items()):
                if not attr.startswith("_") and inspect.isfunction(value):
                    self.wrap_method(cls, attr, "cache")
        self.wrap_method(TraceStream, "chunks", "trace")
        self.wrap_function(generate_trace, "trace", sized=True)
        self.wrap_function(simulate_hit_ratios, "cache")
        self.wrap_function(build_system, "sim")
        self.wrap_function(decompose, "analytic")
        self.wrap_function(solve_trace, "analytic")
        self.wrap_function(run_point, "experiments")

    def __enter__(self) -> "LayerTracer":
        self._patch_kernel()
        self._patch_layers()
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out
