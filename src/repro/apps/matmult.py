"""Matrix multiplication benchmark (Table 1).

``C = A @ B`` on n×n float64 matrices, rows of ``C`` block-partitioned over
ranks. The kernel is **memory bound** on the paper's hardware (§5.4): a
straightforward triple loop re-streams ``B`` from DRAM for every block of
rows, so per-rank DRAM traffic is far larger than the shared-access volume.
We charge that re-read traffic explicitly (``MEM_REUSE`` bytes per flop),
which is what lets the two separate cluster memory buses beat the SMP's
single shared bus in Figure 4.

Homes: ``A``/``C`` are block-distributed to match the partition; ``B`` is
read by everyone and left on its allocating home (rank-cyclic pages), so
every platform pays a one-time B distribution cost.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import (AppResult, compute_cost, memtouch_cost,
                               once_per_run, reference_once_per_run,
                               row_block, whole_params)
from repro.memory.layout import block, cyclic

__all__ = ["run_matmult"]

#: extra DRAM bytes per flop from cache-missed re-reads of B (calibrated to
#: era hardware: naive DGEMM re-reads one 8-byte operand every ~2 flops).
MEM_REUSE_BYTES_PER_FLOP = 2.0


def _inputs(n: int, seed: int):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)), rng.standard_normal((n, n))


def _reference(a_full: np.ndarray, b_full: np.ndarray) -> np.ndarray:
    return a_full @ b_full


def _multiply_g(api, A, B, C, lo: int, hi: int, n: int):
    """Compute, charge and write rows [lo, hi) of ``C = A @ B``. The rank's
    copies of its rows of A and of all of B die with the product, and the
    product once written (docs/performance.md §6): held by the rank body,
    every rank's copy of B would be held at once."""
    c_block = ((yield from A.get_g((slice(lo, hi), slice(None))))
               @ (yield from B.get_g((slice(None), slice(None)))))
    flops = 2.0 * (hi - lo) * n * n
    yield compute_cost(api, flops)
    yield memtouch_cost(api, flops * MEM_REUSE_BYTES_PER_FLOP)
    yield from C.set_g((slice(lo, hi), slice(None)), c_block)


def run_matmult(api, n: int = 1024, seed: int = 42, verify: bool = True) -> AppResult:
    """Run the benchmark on the calling rank; returns its :class:`AppResult`."""
    n, = whole_params("matmult", 1, n=n)
    rank, n_ranks = yield from api.jia_init_g()

    t0 = yield from api.jia_wtime_g()
    A = yield from api.jia_alloc_array_g((n, n), np.float64, name="mm.A",
                                         distribution=block())
    B = yield from api.jia_alloc_array_g((n, n), np.float64, name="mm.B",
                                         distribution=cyclic())
    C = yield from api.jia_alloc_array_g((n, n), np.float64, name="mm.C",
                                         distribution=block())

    a_full, b_full = once_per_run(api, ("matmult", "input", n, seed),
                                  lambda: _inputs(n, seed))
    if verify:
        reference = reference_once_per_run(
            api, ("matmult", "reference", n, seed),
            lambda: _reference(a_full, b_full), flops=2.0 * n ** 3)
    lo, hi = row_block(n, rank, n_ranks)

    # ------------------------------------------------------------- init
    yield from A.set_g((slice(lo, hi), slice(None)), a_full[lo:hi, :])
    if rank == 0:
        yield from B.set_g((slice(None), slice(None)), b_full)
    yield from api.jia_barrier_g()
    t_init = (yield from api.jia_wtime_g()) - t0

    # ---------------------------------------------------------- compute
    t1 = yield from api.jia_wtime_g()
    yield from _multiply_g(api, A, B, C, lo, hi, n)
    yield from api.jia_barrier_g()
    t_comp = (yield from api.jia_wtime_g()) - t1

    # ------------------------------------------------------------ verify
    verified = True
    checksum = 0.0
    if verify:
        ref, checksum = reference.result()
        verified = bool(np.allclose(
            (yield from C.get_g((slice(lo, hi), slice(None)))),
            ref[lo:hi, :], atol=1e-8))
    yield from api.jia_exit_g()

    return AppResult(app="matmult", rank=rank,
                     phases={"init": t_init, "compute": t_comp,
                             "total": t_init + t_comp},
                     verified=verified, checksum=checksum,
                     extra={"n": n})
