"""Shared plumbing for the benchmark applications.

Applications are written against the JiaJia API *surface* (either binding),
partition work by rank, charge their floating-point work explicitly on
their node, and verify their shared-memory result against a sequential
numpy reference computed from the same seeded input.

The seeded input and the sequential reference are host-side facts about
the run, not about a rank: :func:`once_per_run` builds the input once per run
(the first rank that asks pays) and hands every rank the same read-only
arrays. :func:`reference_once_per_run` hands every rank one handle on the
reference. A large reference starts on a helper thread as soon as that
input exists, so it is computed while the ranks simulate and verification
joins it; a small one is computed inline by the first rank to verify,
because a thread costs it more than the overlap saves. Each rank still
reads its own slice back through the DSM and compares it against its
slice of that reference.
"""

from __future__ import annotations

import numbers
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, HamsterError

__all__ = ["AppResult", "whole_params", "compute_cost", "memtouch_cost",
           "row_block", "once_per_run", "reference_once_per_run", "Reference",
           "HELPER_FLOPS", "AppError", "APP_TABLE", "get_app",
           "merge_rank_results"]


class AppError(HamsterError):
    """Raised when a benchmark fails its self-verification."""


@dataclass
class AppResult:
    """Per-rank benchmark outcome."""

    app: str
    rank: int
    #: phase name -> virtual seconds (always includes "total")
    phases: Dict[str, float] = field(default_factory=dict)
    verified: bool = False
    checksum: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)


def whole_params(app: str, minimum: int, **params: Any) -> List[int]:
    """``params``' values as ints, each a whole number >= ``minimum`` (1
    for a size, 0 for a count; 8.0 counts as 8); anything else, NaN
    included, raises :class:`ConfigurationError`. Apps call it before
    ``jia_init_g``, so nothing is allocated."""
    for name, value in params.items():
        if not (isinstance(value, numbers.Real)
                and float(value).is_integer() and value >= minimum):
            raise ConfigurationError(
                f"{app}: {name} must be a whole number >= {minimum}, "
                f"got {name}={value!r}")
    return [int(value) for value in params.values()]


def compute_cost(api, flops: float) -> float:
    """Book application floating-point work on the calling task's node;
    returns the hold (``yield compute_cost(api, flops)``)."""
    dsm = api.hamster.dsm
    return api.hamster.cluster.node(
        dsm.node_of(dsm.current_rank())).compute_cost(flops)


def memtouch_cost(api, nbytes: float) -> float:
    """Book DRAM traffic beyond what the shared accesses already account
    for (cache-miss re-reads in tight kernels — the matmult memory-bound
    effect); returns the hold (``yield memtouch_cost(api, n)``)."""
    dsm = api.hamster.dsm
    return api.hamster.cluster.node(
        dsm.node_of(dsm.current_rank())).bus.touch_cost(int(nbytes))


def row_block(n_rows: int, rank: int, n_ranks: int) -> Tuple[int, int]:
    """[lo, hi) row range of ``rank`` under contiguous block partitioning."""
    per = n_rows // n_ranks
    extra = n_rows % n_ranks
    lo = rank * per + min(rank, extra)
    hi = lo + per + (1 if rank < extra else 0)
    return lo, hi


def _freeze(value):
    for item in value if isinstance(value, tuple) else (value,):
        if isinstance(item, np.ndarray):
            item.flags.writeable = False
    return value


def once_per_run(api, key: tuple, make: Callable[[], Any]):
    """The run-wide value of ``key``: ``make()`` is called by the first rank
    that asks and every rank gets the same object back.

    The values live on the :class:`~repro.core.hamster.Hamster` all ranks
    of a run reach through their ``api``, so they die with the built
    platform. ``key`` must carry everything the value depends on (app,
    role, sizes, seed). Arrays (bare or in a tuple) come back read-only: a
    rank that writes into what it shares with its peers raises
    ``ValueError`` instead of corrupting their input.
    """
    shared = api.hamster.once_per_run
    if key not in shared:
        shared[key] = _freeze(make())
    return shared[key]


#: The least work, in the flop units the ranks charge through
#: :func:`compute_cost`, for which a reference runs on a helper thread.
#: Below it the thread costs more than it overlaps: creating and joining
#: it, and handing the GIL between two cores while numpy works on small
#: arrays (docs/performance.md §10).
HELPER_FLOPS = 3e6


class Reference:
    """A run's ``(reference, checksum)``: ``make()`` and the
    partition-independent checksum ``sum(|reference|)``.

    With ``threaded`` they run on a helper thread that starts with the
    handle; otherwise the first :meth:`result` computes them inline.
    Nothing either does touches the simulation, so virtual time cannot tell
    where they ran.
    """

    __slots__ = ("_make", "_thread", "_value", "_error")

    def __init__(self, make: Callable[[], np.ndarray],
                 threaded: bool = False) -> None:
        self._make = make
        self._value: Optional[tuple] = None
        self._error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        if threaded:
            self._thread = threading.Thread(target=self._compute,
                                            name="repro-reference")
            self._thread.start()

    def _compute(self) -> None:
        try:
            reference = self._make()
            self._value = (reference, float(np.abs(reference).sum()))
        except BaseException as exc:  # re-raised by result(), on a rank
            self._error = exc

    def join(self) -> None:
        """Wait for the helper thread of a threaded handle; raises
        nothing."""
        self._thread.join()

    def result(self) -> tuple:
        """Join the helper (or compute inline, the first time); the
        read-only ``(reference, checksum)``, or the exception ``make()``
        raised."""
        if self._thread is not None:
            self._thread.join()
        elif self._value is None and self._error is None:
            self._compute()
        if self._error is not None:
            raise self._error
        return _freeze(self._value)


def reference_once_per_run(api, key: tuple, make: Callable[[], np.ndarray],
                           flops: float) -> Reference:
    """The run's :class:`Reference` under ``key`` (see
    :func:`once_per_run`): every rank gets the same handle.

    ``flops`` is the reference's work in the units the ranks charge through
    :func:`compute_cost`. From :data:`HELPER_FLOPS` up, the first rank to
    ask starts ``make()`` on a helper thread and the handle joins
    ``hamster.helpers``; :meth:`Hamster.run_spmd
    <repro.core.hamster.Hamster.run_spmd>` joins it before it returns, so no
    helper outlives its run. A smaller reference starts nothing and is
    computed by the first rank that asks for its result."""
    hamster = api.hamster

    def start() -> Reference:
        if flops < HELPER_FLOPS:
            return Reference(make)
        handle = Reference(make, threaded=True)
        hamster.helpers.append(handle)
        return handle

    return once_per_run(api, key, start)


def merge_rank_results(results) -> AppResult:
    """Fold per-rank results into the reported one: phase times are the
    maxima across ranks (the job is done when the slowest rank is),
    verification must hold on every rank."""
    merged = AppResult(app=results[0].app, rank=-1)
    for key in results[0].phases:
        merged.phases[key] = max(r.phases.get(key, 0.0) for r in results)
    merged.verified = all(r.verified for r in results)
    merged.checksum = results[0].checksum
    merged.extra = dict(results[0].extra)
    return merged


#: Table 1 — benchmarks and their working sets (paper's full sizes; the
#: harness scales these down with the ``scale`` knob for quick runs).
APP_TABLE = {
    "matmult": {"description": "Matrix Multiplication", "working_set": "1024x1024 matrix",
                "params": {"n": 1024}},
    "pi": {"description": "Computation of pi", "working_set": "2^23 intervals",
           "params": {"intervals": 1 << 23}},
    "sor": {"description": "Successive Over Relaxation (SOR)",
            "working_set": "1024x1024 matrix", "params": {"n": 1024, "iterations": 10}},
    "lu": {"description": "LU Decomposition", "working_set": "1024x1024 matrix",
           "params": {"n": 1024, "block": 64}},
    "water": {"description": "WATER (Molecular Simulation)",
              "working_set": "288 / 343 molecules", "params": {"molecules": 288, "steps": 2}},
    # Extension beyond Table 1: transpose-based FFT ("ongoing work", §5.4).
    "fft": {"description": "1-D FFT (transpose-based, extension)",
            "working_set": "256x256 complex points", "params": {"n1": 256, "n2": 256}},
}


def get_app(name: str) -> Callable:
    """Benchmark entry point by Table 1 name."""
    if name not in APP_TABLE:
        raise AppError(f"unknown benchmark {name!r}; known: {sorted(APP_TABLE)}")
    entry = f"run_{name}"
    return getattr(__import__(f"repro.apps.{name}", fromlist=[entry]), entry)
