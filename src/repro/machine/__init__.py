"""Simulated cluster hardware.

Models the paper's experimental platform (§5.1): a four-node Linux cluster of
dual 450 MHz Intel Xeon SMP nodes with 512 MB memory each, connected by both
Dolphin SCI and switched Fast Ethernet. All cost constants live in
:mod:`repro.machine.params`; nodes/CPUs in :mod:`repro.machine.node`;
interconnect models in :mod:`repro.machine.ethernet`,
:mod:`repro.machine.sci`, and :mod:`repro.machine.smpbus`; and the assembled
machine in :mod:`repro.machine.cluster`.
"""

from repro.lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.machine.cluster": ("Cluster",),
    "repro.machine.node": ("Node",),
    "repro.machine.params": ("MachineParams", "PAPER_PLATFORM"),
    "repro.machine.interconnect": ("Network", "Message"),
    "repro.machine.ethernet": ("EthernetNetwork",),
    "repro.machine.sci": ("SciInterconnect",),
    "repro.machine.smpbus": ("MemoryBus",),
})
