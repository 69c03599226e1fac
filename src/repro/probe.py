"""The probe protocol: how the simulator reports what it does.

Each array controller, its channel, its disks and its cache carry a
``probe`` attribute, ``None`` by default (one identity check per tap).
At each tap the object calls one hook on its probe; the runner calls
the two request-lifecycle hooks.  A probe never schedules an event or
mutates simulation state, so an observed run is bit-identical to an
unobserved one.

:class:`Probe` declares every hook once, as a no-op, and is the only
place their signatures are documented.  This module imports nothing
from the simulator, so :mod:`repro.validate` and :mod:`repro.obs` both
build on it without importing each other.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["Probe", "ProbeFanout", "HOOKS", "probe_targets"]


class Probe:
    """Base of every probe: one no-op method per hook.

    Hooks fire at ``env.now`` unless they carry their own timestamps.
    """

    __slots__ = ()

    def on_disk_submit(self, disk, request) -> None:
        """*disk* (a :class:`~repro.disk.drive.Disk`) queued *request*
        (a :class:`~repro.disk.request.DiskRequest`)."""

    def on_disk_complete(self, disk, request) -> None:
        """*disk* finished *request*."""

    def on_disk_phase(self, disk, request, phase: str, t0: float, t1: float) -> None:
        """*request* spent ``[t0, t1]`` in *phase*: ``"seek"``,
        ``"rotation"``, ``"transfer"``, ``"sync_wait"`` or ``"rmw_rotate"``.
        Fired after the access's wake-up, so *t1* may lie ahead of now."""

    def on_channel_request(self, channel, nbytes: int) -> None:
        """The active process asks *channel* to move *nbytes*."""

    def on_channel_transfer(self, channel, nbytes: int, duration: float) -> None:
        """*channel* moved *nbytes*; the wire time was the last *duration* ms."""

    def on_cache_op(self, cache, op: str, arg: int) -> None:
        """*cache* changed: *op* is ``"reserve"``/``"release"`` (*arg* =
        slot count) or ``"insert_clean"``, ``"write"``, ``"evict"``,
        ``"begin_destage"``, ``"finish_destage"`` (*arg* = logical block)."""

    def on_handle(self, controller, lstart: int, nblocks: int, is_write: bool) -> None:
        """*controller* admitted *nblocks* array-local blocks from *lstart*."""

    def on_destage(self, controller, run) -> None:
        """A cached *controller* wrote the destage *run* to disk."""

    def on_write_group(self, controller, group) -> None:
        """An uncached *controller* starts the write *group*."""

    def on_parity_update(self, controller, run, parity_runs) -> None:
        """A cached *controller* updates *parity_runs* for destage *run*."""

    def on_degraded(self, controller, kind: str) -> None:
        """*controller* served a ``"read"``/``"write"`` through redundancy."""

    def on_data_loss(self, controller, kind: str, disk: int, pblock: int) -> None:
        """A ``"read"``/``"write"`` of (*disk*, *pblock*) reached data no
        redundancy can reconstruct."""

    def on_latent_repair(self, controller, disk: int, pblock: int, how: str) -> None:
        """A latent error at (*disk*, *pblock*) was repaired by a host
        ``"write"``, a repair-on-``"access"`` or a ``"scrub"``."""

    def on_mirror_route(self, controller, run, chosen, alternate, seek_chosen, seek_alt) -> None:
        """A mirror read of *run* goes to disk *chosen*, not *alternate*
        (seek distances in cylinders)."""

    def on_request_released(
        self, rid: int, process, lstart: int, nblocks: int, is_write: bool
    ) -> None:
        """Logical request *rid* arrived; *process* is its root.  Fired
        first in that process, before any hook the request causes."""

    def on_request_completed(self, rid: int) -> None:
        """Logical request *rid* completed, after every hook it caused."""


#: Every hook name, in declaration order.
HOOKS = tuple(name for name in vars(Probe) if name.startswith("on_"))


def _forward(name: str):
    def hook(self, *args) -> None:
        for probe in self.probes:
            getattr(probe, name)(*args)

    hook.__name__ = name
    hook.__doc__ = getattr(Probe, name).__doc__
    return hook


class ProbeFanout(Probe):
    """Forwards every hook to each of *probes*, in order, so several
    observers can share an object's one ``probe`` slot."""

    __slots__ = ("probes",)

    def __init__(self, probes: Iterable[Probe]) -> None:
        self.probes = tuple(probes)


for _name in HOOKS:
    setattr(ProbeFanout, _name, _forward(_name))
del _name


def probe_targets(controllers: Iterable) -> Iterator:
    """Each controller, its channel, its current disks (a hot spare
    included) and its cache, if any: every object that carries a probe."""
    for ctrl in controllers:
        yield ctrl
        yield ctrl.channel
        yield from ctrl.disks
        cache = getattr(ctrl, "cache", None)
        if cache is not None:
            yield cache
