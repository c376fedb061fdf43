"""Simulated cluster node: CPUs + local memory bus.

A node does not itself run code — application work runs in simulated
processes (see :mod:`repro.sim.process`) that *charge* their costs to the
node they are placed on. Charges are values: a cost function books the
charge and returns the hold, which a stackless body yields
(``yield node.cpu_cost(s)``) and a thread-backed body holds
(:meth:`Node.compute`). CPU time: :meth:`Node.cpu_cost` /
:meth:`Node.compute_cost`; bulk memory traffic: ``node.bus.touch_cost``.
"""

from __future__ import annotations

from typing import Optional

from repro.machine.params import MachineParams
from repro.machine.smpbus import MemoryBus

__all__ = ["Node"]


class Node:
    """One machine in the simulated cluster.

    Parameters
    ----------
    engine:
        Simulation engine.
    node_id:
        Dense integer id, 0-based. Node 0 conventionally hosts global
        services (barrier manager, default lock managers), matching JiaJia.
    params:
        Cost constants.
    n_cpus:
        CPUs available on this node. SPMD configurations place one process
        per node; the SMP configuration places all processes on one node.
    """

    def __init__(self, engine, node_id: int, params: MachineParams,
                 n_cpus: Optional[int] = None) -> None:
        self.engine = engine
        self.node_id = node_id
        self.params = params
        self.n_cpus = n_cpus if n_cpus is not None else params.cpus_per_node
        self.bus = MemoryBus(engine, params, name=f"bus{node_id}")
        # Hoisted from the compute() hot path; the memoized derived value
        # equals params.seconds_per_flop() exactly.
        self._sec_per_flop = params.seconds_per_flop()
        #: accumulated compute seconds charged on this node (monitoring)
        self.compute_time: float = 0.0

    # -------------------------------------------------------------- charges
    def cpu_cost(self, seconds: float) -> float:
        """Book ``seconds`` of raw CPU time; returns the hold to charge."""
        if seconds <= 0:
            return 0.0
        self.compute_time += seconds
        return seconds

    def compute_cost(self, flops: float) -> float:
        """Book ``flops`` floating-point operations; returns the hold."""
        if flops <= 0:
            return 0.0
        t = flops * self._sec_per_flop
        self.compute_time += t
        return t

    def compute(self, flops: float) -> None:
        """Charge the calling process for ``flops`` floating-point operations."""
        if flops > 0:
            self.engine.require_process().hold(self.compute_cost(flops))
