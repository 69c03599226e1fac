"""The disk drive service process.

Each :class:`Disk` owns a request queue (a pluggable
:class:`~repro.disk.scheduler.DiskScheduler`) and a single service loop
that executes one request at a time:

1. **Seek** — arm moves to the target cylinder (fitted seek curve).
2. **Latency** — the platter rotates continuously; the head waits until
   the first sector of the target block arrives.  The angular position is
   a pure function of simulated time (constant rpm, no spindle sync across
   disks, as in the paper).
3. **Transfer** — sectors pass under the head at the sustained rate.
4. For **RMW** accesses the head waits for the written sectors to come
   around again — one full revolution after the read ends — and rewrites
   them in place.  If the new contents depend on reads elsewhere
   (``data_ready``), the disk spins *whole extra revolutions* until the
   dependency is met: this is the cost that the paper's parity
   synchronization policies (SI/RF/DF...) trade against response time.

Steps 1-3 are closed-form once service begins, so the loop computes
their end times up front and sleeps once, until the transfer ends
(:meth:`Environment.timeout_at`).  Only a write whose payload is not yet
computable wakes earlier, when the head reaches its sectors.  Phase
probes fire after the wake-up, from the computed timestamps.
"""

from __future__ import annotations

import math
from typing import Generator, Optional

from repro.des import Environment, Event, TimeWeighted
from repro.disk.geometry import DiskGeometry
from repro.disk.request import AccessKind, DiskRequest
from repro.disk.scheduler import DiskScheduler, FCFSScheduler
from repro.disk.seek import SeekModel

__all__ = ["Disk"]


class Disk:
    """A single disk drive with its queue and service process.

    Parameters
    ----------
    env:
        Simulation environment.
    geometry, seek_model:
        Physical model (Table 1 defaults via the factories in
        :mod:`repro.sim.config`).
    name:
        Identification for logging/metrics (e.g. ``"array3.disk7"``).
    scheduler:
        Queue discipline; FCFS with priority classes by default.
    """

    def __init__(
        self,
        env: Environment,
        geometry: DiskGeometry,
        seek_model: SeekModel,
        name: str = "disk",
        scheduler: Optional[DiskScheduler] = None,
        phase: float = 0.0,
    ) -> None:
        if not 0.0 <= phase < 1.0:
            raise ValueError("phase must be in [0, 1)")
        self.env = env
        self.geometry = geometry
        self.seek_model = seek_model
        self.name = name
        self.scheduler = scheduler if scheduler is not None else FCFSScheduler()
        #: Rotational phase offset in revolutions.  The paper assumes no
        #: spindle synchronization, so the system builder randomises
        #: phases; 0.0 everywhere models synchronized spindles.
        self.phase = phase
        # Geometry constants, read once: the DiskGeometry properties are
        # recomputed on every call.
        self._blocks_per_cylinder = geometry.blocks_per_cylinder
        self._blocks_per_track = geometry.blocks_per_track
        self._sectors_per_block = geometry.sectors_per_block
        self._sectors_per_track = geometry.sectors_per_track
        self._total_blocks = geometry.total_blocks
        self._rev = geometry.revolution_time
        self._block_transfer_time = geometry.block_transfer_time
        self._seek_time = seek_model.seek_time

        #: Current arm position.
        self.cylinder = 0
        self._wakeup: Optional[Event] = None
        self._current: Optional[DiskRequest] = None
        #: Optional :class:`~repro.probe.Probe`; ``None`` keeps the data
        #: path at one identity check per tap.
        self.probe = None

        # -- statistics --
        self.busy_time = 0.0
        self.seek_time_total = 0.0
        self.completed = 0
        self.reads = 0
        self.writes = 0
        self.rmws = 0
        self.blocks_transferred = 0
        self.queue_length = TimeWeighted(env.now, 0.0)

        self.process = env.process(self._serve())

    # -- public API ---------------------------------------------------------
    def submit(self, request: DiskRequest) -> DiskRequest:
        """Enqueue *request*; its ``started``/``done`` events are created."""
        if request.end_block > self._total_blocks:
            raise ValueError(
                f"{request!r} ends past the disk's {self._total_blocks} blocks"
            )
        request.attach(self.env)
        self.scheduler.put(request)
        self.queue_length.add(self.env.now, +1)
        if self.probe is not None:
            self.probe.on_disk_submit(self, request)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return request

    @property
    def pending(self) -> int:
        """Queued requests, excluding the one in service."""
        return len(self.scheduler)

    @property
    def in_service(self) -> Optional[DiskRequest]:
        """The request currently being serviced, if any."""
        return self._current

    def utilization(self, now: Optional[float] = None) -> float:
        """Fraction of time the disk has been busy."""
        t = self.env.now if now is None else now
        return self.busy_time / t if t > 0 else 0.0

    # -- rotational timing ----------------------------------------------------
    def angle_at(self, time: float) -> float:
        """Angular position of the platter in [0, 1) at *time*."""
        rev = self.geometry.revolution_time
        return ((time % rev) / rev + self.phase) % 1.0

    def rotational_latency(self, time: float, block: int) -> float:
        """Time from *time* until the start sector of *block* is under the head."""
        target = self.geometry.start_angle_of(block)
        cur = self.angle_at(time)
        frac = (target - cur) % 1.0
        return frac * self.geometry.revolution_time

    def seek_distance_to(self, block: int) -> int:
        """Cylinders the arm would travel to reach *block* right now."""
        if not 0 <= block < self._total_blocks:
            raise ValueError(f"block {block} outside disk of {self._total_blocks} blocks")
        return abs(block // self._blocks_per_cylinder - self.cylinder)

    # -- service loop -----------------------------------------------------------
    def _serve(self) -> Generator[Event, None, None]:
        env = self.env
        while True:
            while len(self.scheduler) == 0:
                self._wakeup = Event(env)
                yield self._wakeup
                self._wakeup = None
            request = self.scheduler.pop(self.cylinder)
            self.queue_length.add(env.now, -1)
            self._current = request
            assert request.started is not None
            if not request.started.triggered:  # first service attempt
                request.started.settle(env.now)
            t0 = env.now
            finished = yield from self._service(request)
            self.busy_time += env.now - t0
            if finished:
                self.completed += 1
                self.blocks_transferred += request.nblocks
                if self.probe is not None:
                    self.probe.on_disk_complete(self, request)
            self._current = None

    def _latency(self, time: float, target: float) -> float:
        """:meth:`rotational_latency` to start angle *target*, from the
        constants read at construction (same float steps)."""
        rev = self._rev
        return (target - ((time % rev) / rev + self.phase) % 1.0) % 1.0 * rev

    def _service(self, request: DiskRequest) -> Generator[Event, None, bool]:
        env = self.env
        probe = self.probe
        kind = request.kind
        start = request.start_block

        # Closed-form positioning: the seek ends at t1, the start sector
        # is under the head at t2 and the transfer ends at t3.  These are
        # the float steps of sleeping phase by phase, so the times are
        # bit-identical to it, with one wake-up instead of three.  The
        # wake-up takes its sequence number now, so accesses that end at
        # the same instant complete in the order their service began.
        t0 = env.now
        target_cyl = start // self._blocks_per_cylinder
        seek = self._seek_time(abs(target_cyl - self.cylinder))
        self.cylinder = target_cyl
        self.seek_time_total += seek
        t1 = t0 + seek
        in_track = start % self._blocks_per_track
        target = in_track * self._sectors_per_block / self._sectors_per_track
        latency = self._latency(t1, target)
        t2 = t1 + latency
        xfer = request.nblocks * self._block_transfer_time
        t3 = t2 + xfer

        ready = request.data_ready
        dependent = (
            kind is AccessKind.WRITE and ready is not None and not ready.triggered
        )
        if not dependent:
            yield env.timeout_at(t3)
        elif seek > 0.0 or latency > 0.0:
            yield env.timeout_at(t2)
        if probe is not None:
            if seek > 0.0:
                probe.on_disk_phase(self, request, "seek", t0, t1)
            if latency > 0.0:
                probe.on_disk_phase(self, request, "rotation", t1, t2)
            if not dependent:
                probe.on_disk_phase(self, request, "transfer", t2, t3)

        if kind is AccessKind.READ:
            self.reads += 1
            request.read_complete.settle(t3)
            self._finish(request)

        elif kind is AccessKind.WRITE:
            self.writes += 1
            if dependent:
                if not ready.triggered:
                    # Dependent write (e.g. reconstruct-write parity): hold
                    # the disk until the payload is computable, then wait
                    # for the sectors to come around again.
                    wait0 = env.now
                    yield ready
                    if probe is not None:
                        probe.on_disk_phase(self, request, "sync_wait", wait0, env.now)
                    relat = self._latency(env.now, target)
                    if relat > 0.0:
                        tr = env.now
                        yield env.timeout(relat)
                        if probe is not None:
                            probe.on_disk_phase(self, request, "rotation", tr, env.now)
                tw = env.now
                yield env.timeout(xfer)
                if probe is not None:
                    probe.on_disk_phase(self, request, "transfer", tw, env.now)
            self._finish(request)

        else:  # RMW
            self.rmws += 1
            if not request.read_complete.triggered:
                request.read_complete.settle(t3)
            read_end = t3
            rev = self._rev
            # Earliest in-place rewrite: when the run's first sector comes
            # back under the head.  For a single block that is one full
            # revolution after the read began, i.e. (rev - xfer) after it
            # ended; for runs longer than a revolution the latency wraps.
            slot = read_end + self._latency(read_end, target)
            if ready is not None and not ready.triggered:
                if request.max_hold_revolutions is None:
                    yield ready
                    if probe is not None:
                        probe.on_disk_phase(
                            self, request, "sync_wait", read_end, env.now
                        )
                else:
                    # Bounded hold (SI policy): give up after the allowed
                    # revolutions, requeue behind other waiting accesses
                    # and let them through — this is what breaks the
                    # cross-disk circular wait SI can otherwise create.
                    budget = slot - env.now + request.max_hold_revolutions * rev
                    deadline = env.timeout(budget)
                    yield ready | deadline
                    if probe is not None:
                        probe.on_disk_phase(
                            self, request, "sync_wait", read_end, env.now
                        )
                    if not ready.triggered:
                        request.spin_revolutions += request.max_hold_revolutions
                        request.hold_retries += 1
                        request.renumber()
                        self.scheduler.put(request)
                        self.queue_length.add(env.now, +1)
                        return False
            if env.now > slot:
                spins = math.ceil((env.now - slot) / rev - 1e-12)
                request.spin_revolutions += spins
                slot += spins * rev
            tw = env.now
            yield env.timeout(slot - tw + xfer)
            if probe is not None:
                probe.on_disk_phase(self, request, "rmw_rotate", tw, slot)
                probe.on_disk_phase(self, request, "transfer", slot, env.now)
            self._finish(request)

        # Arm parks at the cylinder of the last transferred block.
        self.cylinder = (start + request.nblocks - 1) // self._blocks_per_cylinder
        return True

    def _finish(self, request: DiskRequest) -> None:
        assert request.done is not None
        request.done.succeed(self.env.now)

    def __repr__(self) -> str:
        return f"<Disk {self.name} cyl={self.cylinder} queue={self.pending}>"
