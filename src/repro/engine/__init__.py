"""``repro.engine`` — the discrete-event protocol execution kernel.

The protocols in this library are *round-structured broadcast protocols*; the
engine executes them as interacting per-party state machines on a
virtual-time event kernel instead of as monolithic, instantaneous function
bodies:

* :mod:`repro.engine.kernel` — :class:`~repro.engine.kernel.EventKernel`, a
  deterministic priority-queue scheduler with batch-per-instant (BSP-style)
  micro-round semantics;
* :mod:`repro.engine.machine` — the :class:`~repro.engine.machine.PartyMachine`
  lifecycle (``start`` / ``on_message`` / ``on_wake`` / ``on_timeout``) every
  protocol implements per member, plus the
  :class:`~repro.engine.machine.MachinePlan` a protocol hands to the driver;
* :mod:`repro.engine.latency` — per-link latency models deriving delivery
  delay from the transceiver bitrate, hop count and mobility distance;
* :mod:`repro.engine.executor` — :func:`~repro.engine.executor.run_machines`,
  which wires machines to a :class:`~repro.network.medium.BroadcastMedium`
  and steps the kernel to quiescence.

Two execution modes share the same machines:

* **instant mode** (no :class:`EngineConfig` / no latency model): messages are
  delivered in the same virtual instant through the legacy medium path with
  its immediate retransmission semantics — this is what the synchronous
  ``Protocol.run()`` drivers use and it is bit-identical to the historical
  monolithic execution (same transcripts, keys and energy ledgers);
* **latency mode** (an :class:`EngineConfig` with a latency model): every
  delivery is scheduled at ``now + delay`` on the kernel's queue, each send is
  a *single* physical attempt, and losses surface as round timeouts followed
  by retransmission waves in virtual time — completion latency becomes an
  observable (``sim_latency_s``) alongside energy.
"""

from .executor import EngineConfig, EngineStats, MachineExecutor, run_machines
from .kernel import EventKernel
from .latency import FixedLatency, LatencyModel, TieredLatency, TransceiverLatency
from .machine import Early, MachinePlan, Outbound, PartyMachine

__all__ = [
    "Early",
    "EngineConfig",
    "EngineStats",
    "EventKernel",
    "FixedLatency",
    "LatencyModel",
    "MachineExecutor",
    "MachinePlan",
    "Outbound",
    "PartyMachine",
    "TieredLatency",
    "TransceiverLatency",
    "run_machines",
]
