"""Host-speed probe: a fixed mini discrete-event simulation.

The benchmark's host is shared.  Its neighbours change how much work
this process gets done per second by up to 1.7x, in spells that last
from a second to several minutes, so raw host times of the same code
moved by 30% from run to run.  The probe measures the host's speed at
the moment: a small, fixed simulation made of the same ingredients as
the program (generator processes, a heap event queue, small objects,
dictionary lookups over a table larger than the CPU caches), which slows
down in step with it.  On ``cached-trace1`` cells measured for 14 s
windows over two minutes, the cell time moved by 29% (quartile spread)
and cell time over adjacent probe time by 2.7%.

The probe runs in a child process, so that nothing the program does to
its own interpreter (heap, garbage collector, imports) changes the
probe, and none of the probe's memory counts in the benchmark's peak
RSS.  Run directly, this file is that child: it answers each line on
standard input with the seconds one probe took, until end of input.
"""

from __future__ import annotations

import heapq
import random
import subprocess
import sys
import time
from pathlib import Path

#: Probe time that defines the reference host speed.  A timing scaled
#: by ``PROBE_REF_S / probe time`` reads as on a host where the probe
#: takes this long (the benchmark's development host at its fastest).
PROBE_REF_S = 0.05

_TABLE_SIZE = 200_000
_PROCESSES = 64
_STEPS = 20_000


class _Job:
    __slots__ = ("disk", "block", "t")

    def __init__(self, disk: int, block: int, t: float) -> None:
        self.disk = disk
        self.block = block
        self.t = t


def _table() -> tuple[dict, list]:
    table = {i * 7919 % 1_000_003: [i, i & 7] for i in range(_TABLE_SIZE)}
    return table, list(table)


def probe(table: dict, keys: list) -> float:
    """Seconds one fixed run of the mini simulation takes."""

    def process(pid):
        rng = random.Random(pid)
        pos = 0
        while True:
            job = _Job(pid % 13, keys[rng.randrange(_TABLE_SIZE)], 0.0)
            entry = table[job.block]
            entry[1] = (entry[1] + 1) & 7
            pos = (pos * 31 + entry[0]) % 9973
            yield 0.5 + (pos % 97) * 0.01

    queue = []
    seq = 0
    for pid in range(_PROCESSES):
        proc = process(pid)
        seq += 1
        heapq.heappush(queue, (next(proc), seq, proc))
    t0 = time.perf_counter()
    for _ in range(_STEPS):
        now, _, proc = heapq.heappop(queue)
        seq += 1
        heapq.heappush(queue, (now + proc.send(None), seq, proc))
    return time.perf_counter() - t0


class HostSpeed:
    """The probe child, and timings scaled to the reference host speed.

    Call :meth:`scale` right after each timed unit of work: the unit's
    time is scaled by the mean of the probes taken just before it (the
    previous call's) and just after it.  Use as a context manager; the
    child is stopped and waited for on exit.
    """

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        #: Every probe time taken, in seconds.
        self.samples: list[float] = []
        self._last = self.probe()

    def probe(self) -> float:
        self._child.stdin.write("\n")
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("host-speed probe process ended")
        self.samples.append(float(line))
        return self.samples[-1]

    def scale(self, seconds: float) -> float:
        """*seconds* as they would read at the reference host speed."""
        after = self.probe()
        before, self._last = self._last, after
        return seconds * 2.0 * PROBE_REF_S / (before + after)

    def close(self) -> None:
        if self._child.poll() is None:
            self._child.stdin.close()
            self._child.wait(timeout=30)
        self._child.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def main() -> int:
    table, keys = _table()
    for _ in sys.stdin:
        print(repr(probe(table, keys)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
