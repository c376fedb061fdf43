"""Common machinery for programming-model layers.

A :class:`ProgrammingModel` wraps a HAMSTER runtime and exposes one target
API as methods. Implementing a new API (§4.4) means: map each call onto a
HAMSTER service (or a small composition of them), pick the consistency
model, the task structure, and an initialization template. The base class
supplies the shared plumbing — startup delegation, per-task identity, and
the ``API_CALLS`` manifest the Table 2 complexity measurement counts.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, ClassVar, List, Optional, Sequence, Tuple

from repro.consistency import get_model
from repro.core.hamster import Hamster
from repro.errors import ModelError
from repro.sim.trace import NULL_SPAN

__all__ = ["ProgrammingModel"]


class ProgrammingModel:
    """Base for all Table 2 model layers."""

    #: display name matching Table 2's rows
    MODEL_NAME: ClassVar[str] = "abstract"
    #: names of the public API entry points (the "#API calls" column)
    API_CALLS: ClassVar[Tuple[str, ...]] = ()
    #: consistency model this API promises its applications
    CONSISTENCY: ClassVar[str] = "release"

    def __init__(self, hamster: Hamster) -> None:
        self.hamster = hamster
        # §4.5: the model's consistency must be recreatable on the
        # substrate. Weaker-than-substrate rides free; otherwise the
        # optimized implementation closes the gap. The model owns it, and
        # its acquire/release/fence calls hand it to the consistency module.
        self.consistency_model = get_model(self.CONSISTENCY, hamster.dsm)

    # -------------------------------------------------------- observability
    def _obs_span(self, call: str):
        """Context manager spanning one public API call.

        The root of the causal tree for everything the call triggers
        (service work, protocol actions, wire transfers). Rank attribution
        must not raise outside task context, so it goes through the DSM's
        pid->rank table instead of ``current_rank()``.
        """
        obs = self.hamster.engine.obs
        if obs.enabled:
            proc = self.hamster.engine.current_process
            rank = (self.hamster.dsm._task_rank.get(proc.pid)
                    if proc is not None else None)
            return obs.span("api.call", call=call, rank=rank,
                            model=self.MODEL_NAME)
        return NULL_SPAN

    # ------------------------------------------------------------- identity
    def _rank(self) -> int:
        return self.hamster.dsm.current_rank()

    def _nranks(self) -> int:
        return self.hamster.n_ranks

    # -------------------------------------------------------------- startup
    def run(self, main: Callable, args: tuple = ()) -> List[Any]:
        """Launch ``main(model, *args)`` SPMD-style on every rank — the
        default external-startup template. Thread-structured models
        override this (they start a single main thread). A generator-
        function ``main`` runs stackless."""
        if inspect.isgeneratorfunction(main):
            model = self

            def shim(env, *a):
                return (yield from main(model, *a))

            return self.hamster.run_spmd(shim, args=args)
        return self.hamster.run_spmd(lambda env, *a: main(self, *a), args=args)

    # ------------------------------------------------------------ reflection
    @classmethod
    def api_call_count(cls) -> int:
        return len(cls.API_CALLS)

    @classmethod
    def check_manifest(cls) -> None:
        """Verify every declared API call exists as a public method —
        keeps the Table 2 manifest honest."""
        missing = [name for name in cls.API_CALLS if not callable(getattr(cls, name, None))]
        if missing:
            raise ModelError(
                f"{cls.MODEL_NAME}: API_CALLS entries without methods: {missing}")
