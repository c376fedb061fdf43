"""Consistency model descriptors, the strength lattice, and optimized
implementations over the DSM substrate hooks.

Each model translates three abstract operations into substrate actions:

* ``acquire(dsm, scope)`` — entering a synchronized section,
* ``release(dsm, scope)`` — leaving it (making writes visible per model),
* ``fence(dsm)`` — a full, scope-free consistency point.

The substrate hooks available are ``dsm.lock/unlock`` (which carry the
substrate's *native* acquire/release semantics — e.g. scope-bound write
notices on JiaJia), ``dsm.sync_consistency`` (flush this rank's writes), and
``dsm.barrier``. Stronger-model-on-weaker-substrate gaps are closed with
extra flushes; weaker-on-stronger costs nothing extra (§4.5).
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ConsistencyError

__all__ = [
    "ConsistencyModel",
    "SequentialConsistency",
    "ProcessorConsistency",
    "ReleaseConsistency",
    "ScopeConsistency",
    "EntryConsistency",
    "MODELS",
    "get_model",
    "strength",
    "can_host",
]

#: Strength ranking: a substrate of strength S can host any programming
#: model of strength <= S without extra protocol work. (Entry < Scope <
#: Release < Processor < Sequential — each step promises visibility to a
#: strictly larger set of observers.)
_STRENGTH: Dict[str, int] = {
    "entry": 1,
    "scope": 2,
    "release": 3,
    "processor": 4,
    "sequential": 5,
}


def strength(model_name: str) -> int:
    """Lattice rank of a model name."""
    try:
        return _STRENGTH[model_name]
    except KeyError:
        raise ConsistencyError(
            f"unknown consistency model {model_name!r}; "
            f"known: {sorted(_STRENGTH)}") from None


def can_host(substrate_model: str, program_model: str) -> bool:
    """Can a substrate with native model ``substrate_model`` execute a
    program written for ``program_model`` without extra enforcement?

    "A weaker software model may always be mapped onto a stronger hardware
    model" — the converse needs the extra flushes the model implementations
    below insert.
    """
    return strength(substrate_model) >= strength(program_model)


class ConsistencyModel:
    """Base descriptor + implementation of one consistency model.

    Blocking operations follow the twin-kernel convention of
    :mod:`repro.sim.process`: subclasses override the ``*_g`` kernels; the
    blocking methods trampoline them through :meth:`Engine.kernel`.
    """

    name = "abstract"

    def __init__(self, dsm) -> None:
        self.dsm = dsm
        self.native = dsm.consistency_model()
        #: whether the substrate alone already guarantees this model
        self.free_ride = can_host(self.native, self.name)

    # Default implementations: ride the substrate's lock semantics and
    # strengthen with flushes where the lattice says the substrate is weaker.
    def acquire(self, scope: int) -> None:
        return self.dsm.engine.kernel(self.acquire_g(scope))

    def acquire_g(self, scope: int):
        """Generator kernel of :meth:`acquire` (``yield from`` it)."""
        return self.dsm.lock_g(scope)

    def release(self, scope: int) -> None:
        return self.dsm.engine.kernel(self.release_g(scope))

    def release_g(self, scope: int):
        """Generator kernel of :meth:`release` (``yield from`` it)."""
        return self.dsm.unlock_g(scope)

    def fence_g(self):
        """Generator kernel of :meth:`fence` (``yield from`` it)."""
        return self.dsm.sync_consistency_g()


class SequentialConsistency(ConsistencyModel):
    """Every synchronization point is a global fence. On hardware-coherent
    substrates this is (nearly) free; on DSMs it flushes eagerly at both
    ends of every section."""

    name = "sequential"

    def acquire_g(self, scope: int):
        yield from self.dsm.lock_g(scope)
        if not self.free_ride:
            yield from self.dsm.sync_consistency_g()

    def release_g(self, scope: int):
        if not self.free_ride:
            yield from self.dsm.sync_consistency_g()
        yield from self.dsm.unlock_g(scope)


class ProcessorConsistency(ConsistencyModel):
    """Writes of one processor seen in order by all (the SMP's native
    hardware model, §4.5). On DSMs we conservatively flush at release."""

    name = "processor"

    def release_g(self, scope: int):
        if not self.free_ride:
            yield from self.dsm.sync_consistency_g()
        yield from self.dsm.unlock_g(scope)


class ReleaseConsistency(ConsistencyModel):
    """Eager RC: a release makes this rank's writes visible before the next
    acquire of *any* lock. The substrate's unlock already flushes writes
    home on our DSMs; scope-consistent substrates additionally need the
    global-visibility step, approximated by a fence at release."""

    name = "release"

    def release_g(self, scope: int):
        if not self.free_ride and strength(self.native) < strength("release"):
            # ScC substrate: notices are lock-bound; force global visibility.
            yield from self.dsm.sync_consistency_g()
        yield from self.dsm.unlock_g(scope)


class ScopeConsistency(ConsistencyModel):
    """Scope consistency — writes in a critical section become visible only
    to later entrants of the *same* scope. JiaJia's native model; a pure
    pass-through there, and a free ride on anything stronger."""

    name = "scope"


class EntryConsistency(ConsistencyModel):
    """Entry consistency — data is explicitly bound to its guard. On these
    substrates it behaves like scope consistency."""

    name = "entry"


MODELS = {
    cls.name: cls
    for cls in (SequentialConsistency, ProcessorConsistency,
                ReleaseConsistency, ScopeConsistency, EntryConsistency)
}


def get_model(name: str, dsm) -> ConsistencyModel:
    """Instantiate the optimized implementation of ``name`` over ``dsm``."""
    try:
        cls = MODELS[name]
    except KeyError:
        raise ConsistencyError(
            f"unknown consistency model {name!r}; known: {sorted(MODELS)}") from None
    return cls(dsm)
