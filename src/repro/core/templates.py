"""Standard startup/initialization templates (§4.4).

Initialization splits into (a) internal initialization of the shared-memory
model's support mechanisms and (b) external cluster configuration/startup.
HAMSTER ships reusable templates for both; every programming-model layer's
``*_init`` reduces to one of these.

SPMD main functions may be plain callables or generator functions; the
latter run stackless (see
:mod:`repro.sim.process`) and reach blocking services through the
:class:`SpmdEnv` ``*_g`` shortcuts (``yield from env.barrier_g()``).
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.sim.process import SimProcess

__all__ = ["SpmdEnv", "spmd_startup", "model_startup"]


class SpmdEnv:
    """Per-task handle passed to SPMD main functions.

    Bundles the HAMSTER runtime with the task's identity and the most
    common service shortcuts — the "more user-friendly abstraction for most
    HAMSTER services" the SPMD model exports (§5.2).
    """

    def __init__(self, hamster, rank: int, proc: SimProcess) -> None:
        self.hamster = hamster
        self.rank = rank
        self.proc = proc

    # ------------------------------------------------------------ shortcuts
    @property
    def n_ranks(self) -> int:
        return self.hamster.n_ranks

    def barrier(self) -> None:
        self.hamster.sync.barrier()

    def barrier_g(self):
        """Generator kernel of :meth:`barrier` (``yield from`` it)."""
        return self.hamster.sync.barrier_g()

    def lock(self, lock_id: int) -> None:
        self.hamster.sync.lock(lock_id)

    def lock_g(self, lock_id: int):
        """Generator kernel of :meth:`lock` (``yield from`` it)."""
        return self.hamster.sync.lock_g(lock_id)

    def unlock(self, lock_id: int) -> None:
        self.hamster.sync.unlock(lock_id)

    def unlock_g(self, lock_id: int):
        """Generator kernel of :meth:`unlock` (``yield from`` it)."""
        return self.hamster.sync.unlock_g(lock_id)

    def alloc_array_g(self, shape, dtype=float, name: str = "", **kw):
        """Collective allocation: all ranks call together, all receive the
        same shared array (global allocation with an implicit barrier;
        ``yield from`` it)."""
        return self.hamster.memory.alloc_array_collective_g(
            shape, dtype=dtype, name=name, **kw)

    def compute(self, flops: float) -> None:
        """Charge application computation on this task's node."""
        node = self.hamster.cluster.node(self.hamster.dsm.node_of(self.rank))
        node.compute(flops)

    def wtime(self) -> float:
        return self.hamster.timing.wtime()


def spmd_startup(hamster, main: Callable, args: tuple = (),
                 ranks: Optional[Sequence[int]] = None) -> List[Any]:
    """External-startup template: launch ``main(env, *args)`` on each rank,
    run the simulation to completion, return per-rank results.

    Mirrors the unified startup of §3.3 (the SCI-VM-style script-based
    remote execution with unified node configuration): tasks are created
    from the launcher context (outside any simulated process) and the
    virtual cluster runs until all tasks exit.
    """
    if hamster.engine.current_process is not None:
        raise ConfigurationError(
            "spmd_startup is the job launcher; call it from outside the "
            "simulation (use TaskMgmt.spawn_local for in-job task creation)")
    rank_list = list(ranks) if ranks is not None else list(range(hamster.n_ranks))
    main_is_gen = inspect.isgeneratorfunction(main)
    handles = []
    for rank in rank_list:
        def body(env_rank: int = rank):
            # The generator-function variant keeps run() itself a generator
            # function, so the process runs stackless (a plain wrapper
            # would force a backing thread).
            if main_is_gen:
                def run(proc: SimProcess):
                    hamster.dsm.bind_task(proc, env_rank)
                    env = SpmdEnv(hamster, env_rank, proc)
                    return (yield from main(env, *args))
            else:
                def run(proc: SimProcess) -> Any:
                    hamster.dsm.bind_task(proc, env_rank)
                    env = SpmdEnv(hamster, env_rank, proc)
                    return main(env, *args)
            return run
        proc = SimProcess(hamster.engine, body(), name=f"spmd.r{rank}")
        handles.append(proc)
        proc.start()
    hamster.engine.run()
    return [p.result for p in handles]


def model_startup(hamster, setup: Optional[Callable] = None) -> None:
    """Internal-initialization template: programming-model layers call this
    once to set up their support mechanisms (handlers, registries) before
    tasks start. ``setup(hamster)`` runs in launcher context."""
    hamster.check_ready()
    if setup is not None:
        setup(hamster)
