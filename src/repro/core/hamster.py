"""The HAMSTER runtime: one object bundling the five service modules over a
chosen platform (Figure 1's middle layers).

Construction is usually through :func:`repro.config.ClusterConfig.build` —
"only the configuration is changed between experiments; the actual codes
are not modified" (§5.4). The runtime also owns the per-service-call
overhead accounting that Figure 2 measures: every HAMSTER service entry
charges a small, constant CPU cost on the calling task's node.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence

from repro.core.cluster_ctrl import ClusterControl
from repro.core.consistency_mgmt import ConsistencyMgmt
from repro.core.memory_mgmt import MemoryMgmt
from repro.core.monitoring import MonitoringRegistry
from repro.core.sync_mgmt import SyncMgmt
from repro.core.task_mgmt import TaskMgmt
from repro.core.timing import TimingServices
from repro.errors import ConfigurationError

__all__ = ["Hamster"]


class Hamster:
    """The assembled HAMSTER middleware instance."""

    def __init__(self, cluster, dsm, fabric=None, call_overhead: Optional[float] = None) -> None:
        self.cluster = cluster
        self.engine = cluster.engine
        self.params = cluster.params
        self.dsm = dsm
        self.fabric = fabric
        #: per-service-call CPU cost (None -> platform default)
        self.call_overhead = (call_overhead if call_overhead is not None
                              else self.params.hamster_call_overhead)
        self.monitoring = MonitoringRegistry()
        #: values every rank of a run shares host-side (seeded inputs,
        #: sequential references; see :func:`repro.apps.common.once_per_run`)
        self.once_per_run: dict = {}
        #: helper threads of this run, each with a ``join()``: only a
        #: reference large enough to be worth a thread registers one (see
        #: :func:`repro.apps.common.reference_once_per_run`)
        self.helpers: list = []
        # The five modules (§4.2). Cluster Control first: it provides
        # services the other modules may use during their own setup.
        self.cluster_ctl = ClusterControl(self)
        self.memory = MemoryMgmt(self)
        self.consistency = ConsistencyMgmt(self)
        self.sync = SyncMgmt(self)
        self.task = TaskMgmt(self)
        self.timing = TimingServices(self.engine)
        for mod in (self.cluster_ctl, self.memory, self.consistency,
                    self.sync, self.task):
            self.monitoring._modules[mod.stats.module] = mod.stats

    # ---------------------------------------------------------- accounting
    def call_cost(self) -> float:
        """Book one HAMSTER service-call overhead on the calling task's
        node; returns the hold (``yield self._h.call_cost()``).

        Calls made outside any task context (test fixtures, startup code)
        are free — they model the job launcher, not measured execution.
        """
        proc = self.engine.current_process
        if proc is None or self.call_overhead <= 0:
            return 0.0
        rank = self.dsm._task_rank.get(proc.pid)
        if rank is None:
            return 0.0
        return self.cluster.node(
            self.dsm.node_of(rank)).cpu_cost(self.call_overhead)

    # ------------------------------------------------------------- startup
    def run_spmd(self, main: Callable, args: tuple = (),
                 ranks: Optional[Sequence[int]] = None) -> List[Any]:
        """Standard SPMD startup template (§4.4): spawn ``main(env, rank)``
        on every rank, run the simulation to completion, return the per-rank
        results in rank order.

        ``main`` receives an :class:`SpmdEnv` handle exposing this runtime
        plus its own rank — the shape every programming-model layer's
        startup reduces to.

        Every helper thread the run started is joined before this returns
        or raises, so none outlives its run: a process that later forks (a
        parallel sweep's ``fork`` workers) must not hold a running thread,
        which the child would not get.
        """
        from repro.core.templates import spmd_startup

        try:
            return spmd_startup(self, main, args=args, ranks=ranks)
        finally:
            while self.helpers:
                self.helpers.pop().join()

    # -------------------------------------------------------------- queries
    @property
    def n_ranks(self) -> int:
        return self.dsm.n_procs

    def platform_description(self) -> str:
        net = self.cluster.kind
        return f"{self.dsm.kind} DSM on {net} ({self.cluster.n_nodes} nodes, {self.n_ranks} ranks)"

    def query_statistics(self) -> dict:
        """Snapshot of all module counters + per-rank DSM statistics
        (the monitoring tour of §4.3)."""
        stats = self.monitoring.query_all()
        stats["dsm"] = {f"rank{r}": self.dsm.stats(r) for r in range(self.n_ranks)}
        return stats

    def reset_statistics(self) -> None:
        self.monitoring.reset_all()
        self.dsm.reset_stats()

    def check_ready(self) -> None:
        if self.dsm is None or self.cluster is None:
            raise ConfigurationError("HAMSTER instance missing substrate")
