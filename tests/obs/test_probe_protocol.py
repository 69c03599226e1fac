"""The probe protocol: one hook set, one fan-out, one install walk."""

import ast
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.des import Environment
from repro.failure import failure_controller_factory
from repro.obs import Tracer
from repro.probe import HOOKS, Probe, ProbeFanout
from repro.sim import run_trace
from repro.sim.system import build_system
from repro.validate import InvariantChecker, ValidationMonitor
from tests.validate.workload import config, make_trace

SRC = pathlib.Path(repro.__file__).parent


def _called_hooks() -> set[str]:
    """Every ``probe.on_*`` / ``self.probe.on_*`` the package calls."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            owner = node.func.value
            is_probe = (isinstance(owner, ast.Name) and owner.id == "probe") or (
                isinstance(owner, ast.Attribute)
                and owner.attr == "probe"
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "self"
            )
            if is_probe and node.func.attr.startswith("on_"):
                names.add(node.func.attr)
    return names


def _hook_defs(path: pathlib.Path) -> list[tuple[str, str]]:
    """``(class, method)`` for every ``def on_*`` written in *path*."""
    out = []
    for cls in ast.walk(ast.parse(path.read_text())):
        if isinstance(cls, ast.ClassDef):
            out += [
                (cls.name, f.name)
                for f in cls.body
                if isinstance(f, ast.FunctionDef) and f.name.startswith("on_")
            ]
    return out


def _arity(name: str) -> int:
    return getattr(Probe, name).__code__.co_argcount - 1


class TestHookSet:
    def test_probe_declares_exactly_the_hooks_the_simulator_calls(self):
        assert _called_hooks() == set(HOOKS)

    def test_each_hook_is_declared_once_on_probe(self):
        assert _hook_defs(SRC / "probe.py") == [("Probe", name) for name in HOOKS]
        for module in ("validate/monitor.py", "validate/checker.py"):
            assert _hook_defs(SRC / module) == []

    def test_observers_declare_no_hook_outside_the_protocol(self):
        from repro.validate import default_checkers

        stock = [type(c) for c in default_checkers()]
        for cls in (Tracer, ValidationMonitor, InvariantChecker, *stock):
            extra = {n for n in dir(cls) if n.startswith("on_")} - set(HOOKS)
            assert not extra, (cls.__name__, extra)

    def test_validation_loads_no_observability_module(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.validate.replay; "
                "print([m for m in sys.modules if m.startswith('repro.obs')])",
            ],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"


class _Tagged(Probe):
    """A probe with an instance dict, so a test can replace one hook."""


class TestFanout:
    @pytest.mark.parametrize("name", HOOKS)
    def test_forwards_each_hook_to_each_probe_in_order(self, name):
        log = []
        probes = []
        for tag in "abc":
            probe = _Tagged()
            setattr(probe, name, lambda *args, tag=tag: log.append((tag, args)))
            probes.append(probe)
        args = tuple(range(_arity(name)))
        getattr(ProbeFanout(probes), name)(*args)
        assert log == [("a", args), ("b", args), ("c", args)]

    def test_monitor_is_a_fanout_over_its_checkers(self):
        checkers = [InvariantChecker(), InvariantChecker()]
        monitor = ValidationMonitor(checkers)
        assert isinstance(monitor, ProbeFanout)
        assert monitor.probes == tuple(checkers) == monitor.checkers


class TestCustomChecker:
    def test_checker_with_probe_signatures_sees_every_layer(self):
        class Recorder(InvariantChecker):
            name = "recorder"

            def __init__(self):
                self.seen = {}
                self.released = []
                self.completed = []
                self.contexts = set()

            def _note(self, hook):
                self.seen[hook] = self.seen.get(hook, 0) + 1
                self.contexts.add(id(self.ctx))

            def on_disk_submit(self, disk, request):
                self._note("disk")

            def on_channel_transfer(self, channel, nbytes, duration):
                self._note("channel")

            def on_cache_op(self, cache, op, arg):
                self._note("cache")

            def on_handle(self, controller, lstart, nblocks, is_write):
                self._note("handle")

            def on_request_released(self, rid, process, lstart, nblocks, is_write):
                self._note("released")
                self.released.append((rid, self.ctx.env.now))

            def on_request_completed(self, rid):
                self._note("completed")
                self.completed.append(rid)

        recorder = Recorder()
        trace = make_trace(n=40)
        run_trace(
            config(org="raid5", cached=True, cache_mb=4),
            trace,
            warmup_fraction=0.0,
            validate=True,
            checkers=[recorder],
        )
        assert set(recorder.seen) == {
            "disk", "channel", "cache", "handle", "released", "completed",
        }
        assert [rid for rid, _ in recorder.released] == list(range(len(trace)))
        assert [t for _, t in recorder.released] == pytest.approx(
            trace.records["time"].tolist()
        )
        assert sorted(recorder.completed) == list(range(len(trace)))
        assert len(recorder.contexts) == 1 and None not in recorder.contexts

    def test_traced_and_validated_run_reaches_both(self):
        """With both attached, the request hooks reach the monitor first."""
        order = []

        class First(InvariantChecker):
            def on_request_released(self, rid, process, lstart, nblocks, is_write):
                order.append(("monitor", rid))

        class Second(Tracer):
            def on_request_released(self, rid, process, lstart, nblocks, is_write):
                order.append(("tracer", rid))
                super().on_request_released(rid, process, lstart, nblocks, is_write)

        result = run_trace(
            config(org="base"),
            make_trace(n=5),
            warmup_fraction=0.0,
            validate=True,
            checkers=[First()],
            trace=Second(),
        )
        assert order == [(who, rid) for rid in range(5) for who in ("monitor", "tracer")]
        assert len(result.trace.roots()) == 5


class TestDetachAfterSpare:
    """A hot spare inherits the probe of the disk it replaces; detaching
    must clear it from the spare too."""

    def _system(self):
        env = Environment()
        system = build_system(
            env, config(org="raid5", n=4), narrays=1,
            controller_factory=failure_controller_factory,
        )
        return env, system, system.controllers[0]

    def test_tracer_alone(self):
        env, system, ctrl = self._system()
        tracer = Tracer().attach(env, system.controllers)
        ctrl.fail_disk(0)
        ctrl.attach_spare()
        assert ctrl.disks[0].probe is tracer
        tracer.detach()
        assert [d.probe for d in ctrl.disks] == [None] * len(ctrl.disks)
        assert ctrl.probe is None and ctrl.channel.probe is None

    def test_tracer_over_monitor(self):
        env, system, ctrl = self._system()
        monitor = ValidationMonitor(checkers=[]).attach(env, system.controllers)
        tracer = Tracer().attach(env, system.controllers)
        ctrl.fail_disk(0)
        ctrl.attach_spare()
        tracer.detach()
        assert [d.probe for d in ctrl.disks] == [monitor] * len(ctrl.disks)
        assert ctrl.probe is monitor and ctrl.channel.probe is monitor
        monitor.detach()
        assert [d.probe for d in ctrl.disks] == [None] * len(ctrl.disks)
