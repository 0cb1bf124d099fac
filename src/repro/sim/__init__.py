"""Discrete-event simulation engine.

A small, dependency-free engine in the style of SimPy: an
:class:`~repro.sim.engine.Environment` owns the simulation clock and the
event heap, and *processes* are Python generators that ``yield`` events
(timeouts, resource requests, store gets, other processes, ...) to
suspend until those events fire.

Every higher layer of this package (network, disks, PVFS daemons, the
cache module's kernel threads, the micro-benchmark applications) is a
process running on one shared :class:`Environment`, which is what makes
whole-cluster runs deterministic and laptop-fast.
"""

from repro.sim.engine import Environment
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.process import Process, ProcessKilled
from repro.sim.resources import Lock, Resource, Store, StoreGet

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Lock",
    "Process",
    "ProcessKilled",
    "Resource",
    "Store",
    "StoreGet",
    "Timeout",
]
