"""1-D FFT benchmark (extension — the paper's "ongoing work" §5.4 calls
for experiments with more codes).

Classic transpose-based parallel FFT (Bailey's four-step / SPLASH-2 FFT
shape): N = n₁·n₂ complex points viewed as an n₁×n₂ matrix,

1. each rank FFTs its block of rows (length n₂),
2. twiddle scaling,
3. **transpose through shared memory** — the all-to-all communication
   pattern none of the Table 1 codes exercises: every rank writes a block
   into every other rank's home region,
4. each rank FFTs its rows of the transposed matrix (length n₁).

The result (in transposed layout) is verified against ``numpy.fft`` on the
same seeded input. Complex data is stored as float64 pairs (re, im) to
stay within SharedArray's dtype surface.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import (AppResult, compute_cost, once_per_run,
                               reference_once_per_run, row_block,
                               whole_params)
from repro.memory.layout import block

__all__ = ["run_fft"]


def _to_pairs(z: np.ndarray) -> np.ndarray:
    out = np.empty(z.shape + (2,), dtype=np.float64)
    out[..., 0], out[..., 1] = z.real, z.imag
    return out


def _to_complex(p: np.ndarray) -> np.ndarray:
    return p[..., 0] + 1j * p[..., 1]


def _fft_flops(rows: int, length: int) -> float:
    return 5.0 * rows * length * max(1.0, np.log2(length))


def _inputs(n1: int, n2: int, seed: int):
    """The seeded signal and its n1 x n2 grid view. The row-first four-step
    variant wants the signal laid out column-major on the grid:
    ``grid[a, b] = signal[b*n1 + a]``."""
    rng = np.random.default_rng(seed)
    signal = rng.standard_normal(n1 * n2) + 1j * rng.standard_normal(n1 * n2)
    return signal, signal.reshape(n2, n1).T.copy()


def _reference(signal: np.ndarray, n1: int, n2: int) -> np.ndarray:
    return np.fft.fft(signal).reshape(n1, n2).T  # transposed layout


def run_fft(api, n1: int = 64, n2: int = 64, seed: int = 23,
            verify: bool = True) -> AppResult:
    """Run the benchmark on the calling rank (N = n1*n2 points)."""
    n1, n2 = whole_params("fft", 1, n1=n1, n2=n2)
    rank, n_ranks = yield from api.jia_init_g()

    t0 = yield from api.jia_wtime_g()
    # A holds the n1 x n2 view; B receives the transpose (n2 x n1).
    A = yield from api.jia_alloc_array_g((n1, n2, 2), np.float64, name="fft.A",
                                         distribution=block())
    B = yield from api.jia_alloc_array_g((n2, n1, 2), np.float64, name="fft.B",
                                         distribution=block())
    signal, grid = once_per_run(api, ("fft", "input", n1, n2, seed),
                                lambda: _inputs(n1, n2, seed))
    if verify:
        reference = reference_once_per_run(
            api, ("fft", "reference", n1, n2, seed),
            lambda: _reference(signal, n1, n2),
            flops=_fft_flops(n1, n2) + 6.0 * n1 * n2 + _fft_flops(n2, n1))
    lo, hi = row_block(n1, rank, n_ranks)
    yield from A.set_g((slice(lo, hi), slice(None), slice(None)),
                       _to_pairs(grid[lo:hi, :]))
    yield from api.jia_barrier_g()
    t_init = (yield from api.jia_wtime_g()) - t0

    # --------------------------------------------------- step 1+2: row FFTs
    t1 = yield from api.jia_wtime_g()
    rows = _to_complex(
        (yield from A.get_g((slice(lo, hi), slice(None), slice(None)))))
    rows = np.fft.fft(rows, axis=1)
    yield compute_cost(api, _fft_flops(hi - lo, n2))
    # Twiddle factors W_N^(j*k) between the two passes.
    j = np.arange(lo, hi)[:, None]
    k = np.arange(n2)[None, :]
    rows *= np.exp(-2j * np.pi * j * k / (n1 * n2))
    yield compute_cost(api, 6.0 * (hi - lo) * n2)
    yield from A.set_g((slice(lo, hi), slice(None), slice(None)),
                       _to_pairs(rows))
    yield from api.jia_barrier_g()
    t_fft1 = (yield from api.jia_wtime_g()) - t1

    # ------------------------------------------------- step 3: the transpose
    t2 = yield from api.jia_wtime_g()
    t_lo, t_hi = row_block(n2, rank, n_ranks)
    # Every rank gathers its transposed rows from every source block: an
    # all-to-all read pattern through the DSM.
    gathered = _to_complex(
        (yield from A.get_g((slice(None), slice(t_lo, t_hi), slice(None)))))
    yield from B.set_g((slice(t_lo, t_hi), slice(None), slice(None)),
                       _to_pairs(gathered.T))
    yield from api.jia_barrier_g()
    t_transpose = (yield from api.jia_wtime_g()) - t2

    # --------------------------------------------------- step 4: column FFTs
    t3 = yield from api.jia_wtime_g()
    cols = _to_complex(
        (yield from B.get_g((slice(t_lo, t_hi), slice(None), slice(None)))))
    cols = np.fft.fft(cols, axis=1)
    yield compute_cost(api, _fft_flops(t_hi - t_lo, n1))
    yield from B.set_g((slice(t_lo, t_hi), slice(None), slice(None)),
                       _to_pairs(cols))
    yield from api.jia_barrier_g()
    t_fft2 = (yield from api.jia_wtime_g()) - t3
    total = (yield from api.jia_wtime_g()) - t0

    # ------------------------------------------------------------ verify
    verified = True
    checksum = 0.0
    if verify:
        ref, checksum = reference.result()
        mine = _to_complex(
            (yield from B.get_g((slice(t_lo, t_hi), slice(None), slice(None)))))
        verified = bool(np.allclose(mine, ref[t_lo:t_hi, :],
                                    atol=1e-6 * n1 * n2))
    yield from api.jia_exit_g()

    return AppResult(app="fft", rank=rank,
                     phases={"init": t_init, "fft1": t_fft1,
                             "transpose": t_transpose, "fft2": t_fft2,
                             "total": total},
                     verified=verified, checksum=checksum,
                     extra={"n1": n1, "n2": n2})
