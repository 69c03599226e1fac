"""A stdlib stack sampler: ``signal.setitimer`` plus a frame walk.

It cross-checks the wrapper self times of :mod:`layers` on an untraced
run.  A wrapper adds a fixed cost to every call, which inflates the
share of layers made of many tiny calls; a timer signal costs the same
wherever it lands.  Each ``SIGPROF`` (every ``SAMPLE_INTERVAL_S`` of
process CPU time) charges one sample to the innermost frame's layer, walking
outwards past frames that have no span layer of their own (``models``,
numpy, the standard library), so a sample lands where a span would put
the time.  Samples with no ``repro`` layer on the stack count as
``other``.

The interpreter runs a signal handler only at its check points:
function entry, loop back-edges and returns from C calls.  A sample
taken at a function's entry (``RESUME``) measured time its caller spent,
so it is charged from the caller's frame outwards; without that,
every layer's straight-line code would be charged to the kernel
functions it calls next.
"""

from __future__ import annotations

import dis
import signal

from layers import LAYERS, LayerMap

_RESUME = dis.opmap.get("RESUME")

#: Process CPU time between two samples.
SAMPLE_INTERVAL_S = 0.001


class StackSampler:
    """``with StackSampler(layer_map) as s: ...`` then read :meth:`shares`."""

    def __init__(self, layer_map: LayerMap) -> None:
        self.layer_map = layer_map
        self.counts = dict.fromkeys(LAYERS + ("other",), 0)
        self._previous = None

    def _sample(self, signum, frame) -> None:
        of_file = self.layer_map.of_file
        if frame.f_code.co_code[frame.f_lasti] == _RESUME:
            frame = frame.f_back
        while frame is not None:
            layer = of_file(frame.f_code.co_filename)
            if layer in self.counts and layer != "other":
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts["other"] += 1

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def shares(self) -> dict:
        """Fraction of samples per layer (``other`` included)."""
        n = self.samples
        return {k: (v / n if n else 0.0) for k, v in self.counts.items()}
