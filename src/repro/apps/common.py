"""Shared plumbing for the benchmark applications.

Applications are written against the JiaJia API *surface* (either binding),
partition work by rank, charge their floating-point work explicitly on
their node, and verify their shared-memory result against a sequential
numpy reference computed from the same seeded input.

The seeded input and the sequential reference are host-side facts about
the run, not about a rank: :func:`once_per_run` builds the input once per run
(the first rank that asks pays) and hands every rank the same read-only
arrays. :func:`reference_once_per_run` does the same for the reference and
its checksum, computed by the first rank to reach verification. Each rank
still reads its own slice back through the DSM and compares it against its
slice of that reference.
"""

from __future__ import annotations

import functools
import inspect
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError, HamsterError

__all__ = ["AppResult", "whole_params", "compute_cost", "memtouch_cost",
           "row_block", "once_per_run", "reference_once_per_run", "AppError",
           "APP_TABLE", "get_app", "bind_app", "merge_rank_results",
           "prepare_app"]


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
    ``jia_init``, so nothing is allocated."""
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


def reference_once_per_run(api, key: tuple, make: Callable[[], np.ndarray]):
    """The run's read-only ``(reference, checksum)`` under ``key`` (see
    :func:`once_per_run`): the first rank to ask calls ``make()`` and the
    partition-independent checksum ``sum(|reference|)``, and every rank gets
    the same pair. Apps ask where they verify, so ``verify=False`` never
    calls ``make()``, and an exception from it surfaces on the verifying
    rank. Nothing here touches the simulation."""
    def pair() -> tuple:
        reference = make()
        return reference, float(np.abs(reference).sum())

    return once_per_run(api, key, pair)


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


def bind_app(name: str, params: Dict[str, Any]) -> Callable:
    """The rank body an API's ``run`` takes: benchmark ``name``'s entry
    point with ``params`` bound. A parameter the entry point does not take
    raises :class:`ConfigurationError` naming the app and the parameter;
    callers bind before they build a platform, so nothing is built."""
    fn = get_app(name)
    try:
        inspect.signature(fn).bind(None, **params)  # None stands for the API
    except TypeError as exc:
        raise ConfigurationError(f"{name}: {exc}") from None
    # functools.partial (not a lambda) so generator-function app bodies are
    # detected by the API's isgeneratorfunction dispatch and run stackless.
    return functools.partial(fn, **params)


def prepare_app(config, app: str, params: Dict[str, Any],
                native: bool = False) -> Tuple[Any, Callable[[], AppResult]]:
    """Bind benchmark ``app`` to ``params`` (see :func:`bind_app`), build
    ``config``, and return ``(platform, run)``. ``run()`` runs the app on
    every rank under the JiaJia API, the native binding (Figure 2's
    baseline) if ``native``, and returns the merged :class:`AppResult`.
    The platform comes first so a caller can still read it if ``run()``
    raises."""
    body = bind_app(app, params)
    plat = config.build()
    if native:
        from repro.models.native_jiajia import NativeJiaJiaApi as Api
    else:
        from repro.models.jiajia_api import JiaJiaApi as Api
    api = Api(plat.hamster)
    return plat, lambda: merge_rank_results(api.run(body))
