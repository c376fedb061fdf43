"""Cost-model parameters for the simulated platform.

All times are **seconds**, all sizes **bytes**, all rates **bytes/second**
(or FLOP/s). The defaults (:data:`PAPER_PLATFORM`) are calibrated to the
paper's testbed (§5.1): 450 MHz Intel Xeon nodes, switched Fast Ethernet
with TCP/IP, and Dolphin SCI. Absolute values follow published measurements
of that hardware generation; the evaluation only depends on their *ratios*
(e.g. SCI transactions being ~30× cheaper than a TCP round trip), which are
robust.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import Any, Dict, NamedTuple, Optional

from repro.errors import ConfigurationError

__all__ = ["MachineParams", "DerivedCosts", "PAPER_PLATFORM",
           "stable_digest", "workload_hash", "fault_plan_hash"]


# ---------------------------------------------------------- identity hashes
# Scenario identity = machine identity (MachineParams.fingerprint) +
# workload identity (workload_hash) + fault identity (fault_plan_hash).
# The experiment fabric (repro.fabric) composes the three into one
# content-address for every result record; they live here, next to the
# machine fingerprint, so every layer derives identity the same way.

def stable_digest(material: Any) -> str:
    """sha256 over the canonical JSON form of ``material``.

    Canonical = sorted keys, no whitespace variance — the digest is a pure
    function of the *values*, stable across processes and interpreter
    versions (no reliance on hash randomization or dict order).
    """
    text = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def workload_hash(app: str, params: Dict[str, Any], scale: float,
                  seed: Optional[int] = None) -> str:
    """Stable identity of one workload: app + working set + scale + seed.

    Two runs with equal workload hashes execute the same application on
    the same problem size; combined with :attr:`MachineParams.fingerprint`
    and :func:`fault_plan_hash` this names a run's entire virtual-time
    behaviour.
    """
    return stable_digest({
        "app": app,
        "params": {k: params[k] for k in sorted(params)},
        "scale": scale,
        "seed": seed,
    })


_PERFECT_NETWORK = stable_digest(None)


def fault_plan_hash(plan: Any) -> str:
    """Stable identity of a fault plan (None = the perfect network).

    Accepts anything :meth:`repro.faults.FaultPlan.coerce` does — a plan,
    a bare seed, or a plan dict — and hashes the canonical dict form so
    equal plans hash equally regardless of how they were spelled.
    """
    if plan is None:
        return _PERFECT_NETWORK
    from repro.faults import FaultPlan  # local: machine must not hard-depend on faults

    return stable_digest(FaultPlan.coerce(plan).to_dict())


class DerivedCosts(NamedTuple):
    """Values derived from :class:`MachineParams` fields, computed once
    per instance (the dataclass is frozen)."""

    seconds_per_flop: float
    msg_stack_overhead: float


@dataclass(frozen=True)
class MachineParams:
    """Immutable bundle of machine cost constants.

    Use :meth:`with_overrides` to derive variants (the ablation benches do
    this, e.g. to disable message coalescing).
    """

    # ----------------------------------------------------------------- CPU
    #: CPU clock rate (450 MHz Xeon).
    cpu_hz: float = 450e6
    #: Sustained scalar FLOP rate for the benchmark kernels. Xeon-450-class
    #: codes sustained roughly 0.4 flop/cycle on tuned kernels.
    flops_per_second: float = 180e6

    # -------------------------------------------------------------- memory
    #: Virtual-memory page size used by all DSM protocols.
    page_size: int = 4096
    #: Sustained local memory-bus bandwidth per node (100 MHz FSB era).
    mem_bandwidth: float = 350e6
    #: Per-bulk-access fixed memory latency (DRAM + chipset).
    mem_latency: float = 0.18e-6
    #: Number of CPUs per SMP node (paper: dual-Xeon nodes).
    cpus_per_node: int = 2

    # ------------------------------------------------------ Fast Ethernet
    #: One-way wire+switch latency of switched Fast Ethernet.
    eth_latency: float = 70e-6
    #: Sustained TCP payload bandwidth on 100 Mbit/s Ethernet.
    eth_bandwidth: float = 11.0e6
    #: Sender-side CPU cost per TCP message (syscall + stack + copy).
    tcp_send_overhead: float = 28e-6
    #: Receiver-side CPU cost per TCP message.
    tcp_recv_overhead: float = 28e-6

    # ----------------------------------------------------------------- SCI
    #: Latency of a remote SCI read transaction (CPU stalls on it).
    sci_read_latency: float = 4.5e-6
    #: Latency of a remote SCI posted write (write buffer hides most of it).
    sci_write_latency: float = 1.6e-6
    #: Sustained SCI bulk bandwidth (reads).
    sci_read_bandwidth: float = 65e6
    #: Sustained SCI bulk bandwidth (posted writes).
    sci_write_bandwidth: float = 85e6
    #: Cost of flushing the SCI write buffer (consistency enforcement).
    sci_flush_cost: float = 2.5e-6
    #: One-time cost of mapping one remote page through the kernel
    #: component of the hybrid DSM (SCI-VM's kernel driver, §2).
    sci_map_page_cost: float = 18e-6
    #: Latency of one SCI remote atomic (fetch&inc etc.), used by locks.
    sci_atomic_latency: float = 5.0e-6
    #: Additional per-hop latency on the SCI ringlet. SCI is a ring: a
    #: transaction from node i to node j traverses (j - i) mod N link hops
    #: forward (responses return the rest of the way round). Zero disables
    #: topology modelling (uniform remote latency).
    sci_hop_latency: float = 0.35e-6
    #: SCI topology: 0 = single ringlet (the paper's testbed); W > 0 = a 2D
    #: torus of unidirectional ringlets with W nodes per row (the Dolphin
    #: arrangement for large installations). Torus routing is
    #: dimension-ordered, so the worst-case hop count is (W-1) + (H-1)
    #: instead of N-1 — the property the 64/256/1024-node SCI presets rely
    #: on to keep remote latencies flat as the node axis scales.
    sci_torus_width: int = 0

    # --------------------------------------------------------- DSM software
    #: Software cost of taking a page fault and entering the DSM handler
    #: (SIGSEGV delivery + dispatch on real hardware).
    fault_handling_cost: float = 18e-6
    #: Fixed software cost of creating a twin (malloc + bookkeeping); the
    #: page copy itself is charged at memory bandwidth on top.
    twin_fixed_cost: float = 3e-6
    #: Fixed cost of encoding a diff (scan setup); scan traffic charged at
    #: memory bandwidth (read page + twin).
    diff_fixed_cost: float = 4e-6
    #: Fixed cost of applying a diff at the home node.
    diff_apply_fixed_cost: float = 2.5e-6
    #: Cost of invalidating one actually-present page named by a write
    #: notice (page-table update + mprotect).
    write_notice_cost: float = 0.8e-6
    #: Cost of scanning one incoming write notice (vectorized table walk;
    #: most notices name pages the rank does not cache).
    notice_scan_cost: float = 0.05e-6
    #: Server-side cost of handling a page request at the home node.
    page_serve_cost: float = 6e-6

    # ----------------------------------------------------------- messaging
    #: Per-message software overhead of a *stand-alone* messaging stack
    #: (what native JiaJia pays for its own socket layer on top of the
    #: TCP costs above: dispatch, buffer management, signal handling).
    msg_stack_overhead_separate: float = 9e-6
    #: Per-message overhead of the HAMSTER *coalesced* messaging layer
    #: (§3.3: the DSM's and HAMSTER's messaging merged into one channel,
    #: one dispatch path, shared buffers).
    msg_stack_overhead_integrated: float = 5.5e-6
    #: Whether the framework coalesces messaging stacks (ablation knob).
    coalesce_messaging: bool = True

    # ------------------------------------------------------------- HAMSTER
    #: CPU cost of one HAMSTER service call (argument translation and
    #: dispatch through the programming-model layer; ~200 cycles).
    hamster_call_overhead: float = 0.45e-6
    #: CPU cost of one native API call when bound directly to the DSM
    #: (thin wrapper; ~60 cycles).
    native_call_overhead: float = 0.13e-6
    #: Extra cost per page-fault protocol activation when the DSM is
    #: integrated into HAMSTER (the modified JiaJia dispatches its SIGSEGV
    #: path through the consistency framework). Zero in native builds.
    hamster_fault_hook: float = 5e-6
    #: Extra cost per lock/unlock/barrier protocol operation under HAMSTER
    #: integration (sync-module dispatch + parameter translation).
    hamster_sync_hook: float = 4e-6
    #: Cost of a statistics-counter update in the monitoring services.
    monitor_update_cost: float = 0.0  # counters are maintained for free in-sim

    # ------------------------------------------------------------- syscalls
    #: Cost of an OS-level synchronization primitive on one node (futex-ish).
    os_sync_cost: float = 1.2e-6
    #: Cost of spawning a task/thread on a node.
    task_spawn_cost: float = 55e-6

    def __post_init__(self) -> None:
        # A NaN or infinite cost runs to a NaN clock that still verifies,
        # a negative one shortens times, and a NumPy scalar turns the
        # clock into one: reject each here, where every config file, grid
        # override and ``param_overrides`` entry arrives.
        for name in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if (type(value) not in (int, float) or not math.isfinite(value)
                    or value < 0):
                raise ConfigurationError(
                    f"machine parameter {name} must be a finite int or float "
                    f">= 0, got {value!r}")
        if type(self.coalesce_messaging) is not bool:
            raise ConfigurationError(
                "machine parameter coalesce_messaging must be a bool, "
                f"got {self.coalesce_messaging!r}")

    def with_overrides(self, **kw) -> "MachineParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)

    # ------------------------------------------------------------- identity
    @cached_property
    def fingerprint(self) -> str:
        """Stable digest of every field value.

        Because the dataclass is frozen, the fingerprint is immutable and
        identifies this *configuration* (not this instance): two params
        objects built with the same values share a fingerprint.
        """
        payload = ";".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    @cached_property
    def _derived(self) -> DerivedCosts:
        return DerivedCosts(
            seconds_per_flop=1.0 / self.flops_per_second,
            msg_stack_overhead=(self.msg_stack_overhead_integrated
                                if self.coalesce_messaging
                                else self.msg_stack_overhead_separate))

    # ------------------------------------------------------------- helpers
    def seconds_per_flop(self) -> float:
        return self._derived.seconds_per_flop

    def msg_stack_overhead(self) -> float:
        """Per-message software overhead under the active messaging config."""
        return self._derived.msg_stack_overhead


#: Every field but the one flag: costs, rates, sizes and counts.
_NUMERIC_FIELDS = tuple(f.name for f in fields(MachineParams)
                        if f.name != "coalesce_messaging")

#: Default parameters mirroring the paper's testbed.
PAPER_PLATFORM = MachineParams()
