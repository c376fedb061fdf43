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
    """Consistency services + model selection.

    The scope services take the :class:`ConsistencyModel` to enforce: each
    programming model owns its own (``ProgrammingModel.consistency_model``),
    so two models built on one platform each keep theirs.
    """

    def __init__(self, hamster) -> None:
        self._h = hamster
        self.dsm = hamster.dsm
        self.stats = ModuleStats("consistency")
        self._models: Dict[str, ConsistencyModel] = {}

    # ------------------------------------------------------------ selection

    def can_host_g(self, program_model: str):
        """Does the substrate guarantee ``program_model`` without extra
        enforcement? (§4.5 weaker-onto-stronger rule; ``yield from`` it.)"""
        yield self._h.call_cost()
        return can_host(self.dsm.consistency_model(), program_model)

    def use_g(self, model_name: str):
        """The (cached) optimized implementation of a model, to hand to
        the scope services (``yield from`` it)."""
        yield self._h.call_cost()
        if model_name not in self._models:
            self._models[model_name] = get_model(model_name, self.dsm)
            self.stats.incr("models_instantiated")
        return self._models[model_name]

    # ------------------------------------------------------------ operations
    def acquire_g(self, model: ConsistencyModel, scope: int):
        """Enter a consistency scope under ``model``."""
        yield self._h.call_cost()
        self.stats.incr("acquires")
        yield from model.acquire_g(scope)

    def release_g(self, model: ConsistencyModel, scope: int):
        """Leave a consistency scope under ``model``."""
        yield self._h.call_cost()
        self.stats.incr("releases")
        yield from model.release_g(scope)

    def fence(self, model: ConsistencyModel) -> None:
        """Full consistency point under ``model``: all of this rank's
        writes become globally fetchable."""
        return self._h.engine.kernel(self.fence_g(model))

    def fence_g(self, model: ConsistencyModel):
        """Generator kernel of :meth:`fence` (``yield from`` it)."""
        yield self._h.call_cost()
        self.stats.incr("fences")
        yield from model.fence_g()

    def check_model(self, model_name: str) -> None:
        if model_name not in MODELS:
            raise ConsistencyError(
                f"unknown consistency model {model_name!r}; "
                f"known: {sorted(MODELS)}")
