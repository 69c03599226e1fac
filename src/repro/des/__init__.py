"""Discrete-event simulation kernel.

A compact, deterministic, generator-coroutine DES kernel in the style of
simpy (which is not available in this offline environment).  Simulation
*processes* are Python generators that ``yield`` :class:`~repro.des.events.Event`
instances; the :class:`~repro.des.environment.Environment` advances a virtual
clock and resumes processes when the events they wait on are triggered.

Determinism: events scheduled for the same simulated time are processed in
schedule order (a monotonically increasing sequence number breaks ties), so a
simulation with a fixed random seed is exactly reproducible.

Example
-------
>>> from repro.des import Environment
>>> def clock(env, out):
...     while env.now < 3:
...         out.append(env.now)
...         yield env.timeout(1)
>>> env = Environment()
>>> ticks = []
>>> env.process(clock(env, ticks))
<Process(clock) object at ...>
>>> env.run()
>>> ticks
[0, 1, 2]
"""

from repro.des.environment import Environment
from repro.des.events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Interrupt,
    Timeout,
)
from repro.des.process import Process
from repro.des.resources import (
    PriorityStore,
    Request,
    Resource,
    Store,
)
from repro.des.monitor import Tally, TimeWeighted

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "Environment",
    "Event",
    "Interrupt",
    "PriorityStore",
    "Process",
    "Request",
    "Resource",
    "Store",
    "Tally",
    "TimeWeighted",
    "Timeout",
]
