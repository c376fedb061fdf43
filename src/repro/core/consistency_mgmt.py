"""Consistency Management module (§4.2, §4.5).

Exposes the HAMSTER consistency API: selection among optimized
implementations of all widely used models (:mod:`repro.consistency`),
scope-based acquire/release services, explicit fences, and the model
compatibility queries programming-model implementers use when matching a
target API's semantics to the substrate.
"""

from __future__ import annotations

from typing import Dict

from repro.consistency import MODELS, ConsistencyModel, can_host, get_model
from repro.core.monitoring import ModuleStats
from repro.errors import ConsistencyError

__all__ = ["ConsistencyMgmt"]


class ConsistencyMgmt:
    """Consistency services + model selection."""

    def __init__(self, hamster) -> None:
        self._h = hamster
        self.dsm = hamster.dsm
        self.stats = ModuleStats("consistency")
        self._models: Dict[str, ConsistencyModel] = {}
        self._active = self.dsm.consistency_model()
        if self._active not in MODELS:
            # Substrates may report hardware model names outside the API's
            # registry; fall back to release consistency.
            self._active = "release"

    # ------------------------------------------------------------ selection

    def can_host_g(self, program_model: str):
        """Does the substrate guarantee ``program_model`` without extra
        enforcement? (§4.5 weaker-onto-stronger rule; ``yield from`` it.)"""
        yield self._h.call_cost()
        return can_host(self.dsm.consistency_model(), program_model)

    def use(self, model_name: str) -> ConsistencyModel:
        """Select (and cache) the optimized implementation of a model."""
        return self._h.engine.kernel(self.use_g(model_name))

    def use_g(self, model_name: str):
        """Generator kernel of :meth:`use` (``yield from`` it)."""
        yield self._h.call_cost()
        if model_name not in self._models:
            self._models[model_name] = get_model(model_name, self.dsm)
            self.stats.incr("models_instantiated")
        self._active = model_name
        return self._models[model_name]

    def active(self) -> ConsistencyModel:
        if self._active not in self._models:
            self._models[self._active] = get_model(self._active, self.dsm)
        return self._models[self._active]

    # ------------------------------------------------------------ operations
    def acquire_g(self, scope: int):
        """Enter a consistency scope under the active model."""
        yield self._h.call_cost()
        self.stats.incr("acquires")
        yield from self.active().acquire_g(scope)

    def release_g(self, scope: int):
        """Leave a consistency scope under the active model."""
        yield self._h.call_cost()
        self.stats.incr("releases")
        yield from self.active().release_g(scope)

    def fence(self) -> None:
        """Full consistency point: all of this rank's writes become
        globally fetchable."""
        return self._h.engine.kernel(self.fence_g())

    def fence_g(self):
        """Generator kernel of :meth:`fence` (``yield from`` it)."""
        yield self._h.call_cost()
        self.stats.incr("fences")
        yield from self.active().fence_g()

    def check_model(self, model_name: str) -> None:
        if model_name not in MODELS:
            raise ConsistencyError(
                f"unknown consistency model {model_name!r}; "
                f"known: {sorted(MODELS)}")
