"""HAMSTER reproduction: a framework for portable shared memory programming.

Reimplementation of Schulz & McKee (IPPS 2003) on a deterministic simulated
cluster substrate. Quick start::

    from repro import preset

    plat = preset("sw-dsm-4").build()

    def main(env, n):       # a generator function: runs stackless
        A = yield from env.alloc_array_g((n, n), name="A")
        ...
        yield from env.barrier_g()

    results = plat.hamster.run_spmd(main, args=(256,))

See ``examples/quickstart.py`` and the README for the full tour.
"""

from repro.lazy import lazy_exports

__version__ = "1.1.0"

__all__, __getattr__ = lazy_exports(__name__, {
    "repro.config": ("ClusterConfig", "preset", "load", "loads"),
    "repro.core.hamster": ("Hamster",),
    "repro.core.templates": ("SpmdEnv",),
    "repro.faults": ("FaultPlan", "run_chaos"),
})
__all__.append("__version__")
