"""DSM substrates: the three base architectures of §3.2.

* :mod:`repro.dsm.smp` — hardware-coherent shared memory (tightly coupled),
* :mod:`repro.dsm.jiajia` — JiaJia-style software DSM over Ethernet
  (loosely coupled; home-based scope consistency),
* :mod:`repro.dsm.scivm` — SCI-VM-style hybrid DSM over SCI remote-memory
  hardware (the intermediate design point).

All three implement :class:`repro.dsm.base.GlobalMemorySystem`, the global
memory abstraction HAMSTER requires of a base architecture — global
allocation, transparent read/write, synchronization, and consistency
control — so the HAMSTER core and every programming model run unmodified on
each.
"""

from repro.errors import ConfigurationError
from repro.lazy import lazy_exports

#: DSM kind -> the module and class that implement it
_KINDS = {"smp": ("repro.dsm.smp", "SmpMemorySystem"),
          "jiajia": ("repro.dsm.jiajia", "JiaJiaSystem"),
          "scivm": ("repro.dsm.scivm", "SciVmSystem")}


def make_dsm(kind: str, cluster, fabric=None, **kw):
    """Factory used by the cluster-configuration machinery; imports only
    the substrate it builds.

    ``kind`` is one of ``"smp"``, ``"jiajia"`` (SW-DSM), ``"scivm"``
    (hybrid DSM).
    """
    if kind not in _KINDS:
        raise ConfigurationError(
            f"unknown DSM kind {kind!r}; expected one of {sorted(_KINDS)}")
    module, name = _KINDS[kind]
    cls = getattr(__import__(module, fromlist=[name]), name)
    if kind == "smp":
        return cls(cluster, **kw)
    return cls(cluster, fabric=fabric, **kw)


__all__, __getattr__ = lazy_exports(__name__, {
    "repro.dsm.base": ("GlobalMemorySystem", "AccessStats"),
    "repro.dsm.smp": ("SmpMemorySystem",),
})
__all__.append("make_dsm")
