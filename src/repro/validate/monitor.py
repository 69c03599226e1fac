"""The validation monitor: probe installation and event fan-out.

:class:`ValidationMonitor` is the single object the simulator knows
about.  :meth:`~ValidationMonitor.attach` installs it as the probe of
every disk, channel, cache and controller of the system and registers a
kernel event hook; as a :class:`~repro.probe.ProbeFanout` over its
checkers it forwards each probe hook to every checker, in order.
:meth:`~ValidationMonitor.finalize` gives every checker its end-of-run
audit and then detaches all probes, so a monitored system can keep
running unobserved afterwards.

The monitor also owns one invariant itself: the kernel's clock must
never run backwards (the ``(time, sequence)`` heap contract).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.probe import ProbeFanout, probe_targets
from repro.validate.checker import CheckContext, InvariantChecker, InvariantViolation

__all__ = ["ValidationMonitor", "default_checkers"]


def default_checkers() -> list[InvariantChecker]:
    """One instance of each stock checker."""
    from repro.validate.cache_accounting import CacheAccountingChecker
    from repro.validate.conservation import RequestConservationChecker
    from repro.validate.parity import ParityConsistencyChecker
    from repro.validate.resources import ResourceSanityChecker

    return [
        RequestConservationChecker(),
        ParityConsistencyChecker(),
        CacheAccountingChecker(),
        ResourceSanityChecker(),
    ]


class ValidationMonitor(ProbeFanout):
    """Fans every probe hook out to a set of invariant checkers.

    Parameters
    ----------
    checkers:
        The checkers to run; ``None`` selects the four stock checkers
        (conservation, parity, cache accounting, resource sanity).
    """

    def __init__(self, checkers: Optional[Iterable[InvariantChecker]] = None) -> None:
        super().__init__(checkers if checkers is not None else default_checkers())
        self.ctx: Optional[CheckContext] = None
        self._hook = None
        self._last_event_time = 0.0

    @property
    def checkers(self) -> tuple[InvariantChecker, ...]:
        """The checkers, in the order every hook reaches them."""
        return self.probes

    # -- lifecycle -----------------------------------------------------------
    def attach(self, env, controllers: Sequence, warmup_ms: float = 0.0) -> "ValidationMonitor":
        """Install probes on *controllers* and their resources."""
        if self.ctx is not None:
            raise RuntimeError("monitor is already attached")
        self.ctx = CheckContext(env, controllers, warmup_ms)
        self._last_event_time = env.now
        for obj in probe_targets(self.ctx.controllers):
            obj.probe = self
        self._hook = env.on_event(self._on_kernel_event)
        for checker in self.checkers:
            checker.ctx = self.ctx
            checker.attach(self.ctx)
        return self

    def finalize(self, result=None) -> None:
        """Run every checker's end-of-run audit, then detach."""
        if self.ctx is None:
            raise RuntimeError("monitor is not attached")
        try:
            for checker in self.checkers:
                checker.finalize(self.ctx, result)
        finally:
            self.detach()

    def detach(self) -> None:
        """Remove all probes; the system continues unobserved."""
        if self.ctx is None:
            return
        for obj in probe_targets(self.ctx.controllers):
            obj.probe = None
        if self._hook is not None:
            self.ctx.env.off_event(self._hook)
            self._hook = None
        self.ctx = None

    # -- kernel hook -----------------------------------------------------------
    def _on_kernel_event(self, time: float, event) -> None:
        if time < self._last_event_time:
            raise InvariantViolation(
                "event-order",
                f"clock ran backwards: event at {time:g} after {self._last_event_time:g}",
            )
        self._last_event_time = time
