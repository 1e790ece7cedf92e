"""Discrete-event simulation kernel.

A compact, generator-based DES in the style of SimPy, purpose-built for the
RobuSTore simulator but fully generic.  Processes are Python generators that
``yield`` :class:`~repro.sim.events.Event` objects; the
:class:`~repro.sim.core.Environment` advances virtual time and resumes
processes when the events they wait on fire.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> log = []
>>> def proc(env):
...     yield env.timeout(5)
...     log.append(env.now)
>>> _ = env.process(proc(env))
>>> env.run()
>>> log
[5.0]
"""

from repro.sim.core import Environment, Interrupt, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Process, Timeout
from repro.sim.resources import Store
from repro.sim.rng import RngHub

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RngHub",
    "SimulationError",
    "Store",
    "Timeout",
]
