"""WATER molecular simulation benchmark (Table 1).

A WATER-style N-body molecular dynamics step, following the SPLASH/JiaJia
code's structure: molecules are block-partitioned; each step every rank
computes the pairwise (Lennard-Jones-like) forces for its half of the pair
triangle, accumulates its contributions into the *shared* force array under
section locks (the lock-heavy phase that makes WATER the synchronization
stress test of the suite), then integrates the positions of its own
molecules. Run at the paper's two working sets: 288 and 343 molecules.
"""

from __future__ import annotations

import numpy as np

from repro.apps.common import (AppResult, compute_cost, once_per_run,
                               reference_once_per_run, row_block,
                               whole_params)
from repro.memory.layout import block

__all__ = ["run_water"]

#: lock-id base for the per-section force locks
FORCE_LOCK_BASE = 100
DT = 1e-3
EPS = 0.25
#: rows of the pair triangle one :func:`_pair_forces` block evaluates: at
#: 343 molecules a block's temporaries stay under 1 MB (docs/performance.md
#: §6.2 has the sizes timed)
BLOCK = 32
_ON_OR_BELOW = np.tri(BLOCK, dtype=bool)


def _pair_forces(pos: np.ndarray, i_lo: int, i_hi: int) -> np.ndarray:
    """Forces on all molecules from pairs (i, j>i) with i in [i_lo, i_hi).

    Bit-for-bit the row loop ``for i: f = kernel(pos[i+1:] - pos[i]);
    forces[i] -= f.sum(axis=0); forces[i+1:] += f``, evaluated
    :data:`BLOCK` rows at a time: every sum keeps the loop's order, so
    the result is the same bits. Each block holds its pairs as ``(row,
    component, column)`` over the columns ``j >= b0``, with ``j <= i``
    zeroed; a zero pair adds nothing to a force's bits. A column's sum
    is carried from block to block as row 0 of the next block's buffer,
    so column ``j`` still adds ``f[i, j]`` in ``i`` order. A row's sum
    runs over a copy whose outer axis is ``j``, because numpy sums along
    the contiguous axis pairwise, not in order."""
    n = pos.shape[0]
    forces = np.zeros_like(pos)
    if i_hi <= i_lo:
        return forces
    p = np.ascontiguousarray(pos.T)                     # (3, n)
    carry = np.zeros((3, n - i_lo))                     # column sums so far
    for b0 in range(i_lo, i_hi, BLOCK):
        rows = min(BLOCK, i_hi - b0)
        buf = np.empty((rows + 1, 3, n - b0))
        buf[0] = carry
        f = np.subtract(p[None, :, b0:], pos[b0:b0 + rows, :, None],
                        out=buf[1:])                    # (rows, 3, n-b0)
        dx, dy, dz = f[:, 0], f[:, 1], f[:, 2]
        r2 = dx * dx + dy * dy + dz * dz + EPS
        inv = 1.0 / (r2 * r2 * np.sqrt(r2))             # ~ 1/r^5 kernel
        inv[:, :rows][_ON_OR_BELOW[:rows, :rows]] = 0.0
        f *= inv[:, None, :]
        col = np.add.reduce(buf, axis=0)
        row = np.add.reduce(np.ascontiguousarray(f.transpose(2, 0, 1)),
                            axis=0)
        forces[b0:b0 + rows] = col[:, :rows].T - row
        carry = col[:, rows:]
    forces[i_hi:] = carry.T
    return forces


def _reference(initial: np.ndarray, steps: int) -> np.ndarray:
    pos = initial.copy()
    n = pos.shape[0]
    for _ in range(steps):
        forces = _pair_forces(pos, 0, n)
        pos += DT * forces
    return pos


def run_water(api, molecules: int = 288, steps: int = 2, seed: int = 5,
              verify: bool = True) -> AppResult:
    """Simulate ``steps`` time steps of ``molecules`` molecules.

    A ``molecules`` that is not a whole number >= 1 (NaN included), or a
    ``steps`` that is not a whole number >= 0, raises
    :class:`ConfigurationError` before anything is allocated. ``steps=0``
    is a legal zero-step run: the positions stay the input and verify."""
    n, = whole_params("water", 1, molecules=molecules)
    steps, = whole_params("water", 0, steps=steps)
    rank, n_ranks = yield from api.jia_init()

    t0 = yield from api.jia_wtime()
    X = yield from api.jia_alloc_array((n, 3), np.float64, name="water.pos",
                                         distribution=block())
    F = yield from api.jia_alloc_array((n, 3), np.float64, name="water.frc",
                                         distribution=block())
    initial = once_per_run(
        api, ("water", "input", n, seed),
        lambda: np.random.default_rng(seed).random((n, 3)) * 10.0)
    lo, hi = row_block(n, rank, n_ranks)
    yield from X.set_g((slice(lo, hi), slice(None)), initial[lo:hi, :])
    if rank == 0:
        yield from F.set_g((slice(None), slice(None)), 0.0)
    yield from api.jia_barrier()
    t_init = (yield from api.jia_wtime()) - t0

    t1 = yield from api.jia_wtime()
    for _ in range(steps):
        pos = yield from X.get_g((slice(None), slice(None)))
        local = _pair_forces(pos, lo, hi)
        # WATER evaluates 9 site-pairs (3 atoms x 3 atoms) of LJ + Coulomb
        # terms per molecule pair: ~300 flops per pair on the real kernel.
        pairs = sum(n - i - 1 for i in range(lo, hi))
        yield compute_cost(api, 300.0 * pairs)

        # Accumulate into the shared force array section by section, each
        # guarded by its owner's lock (the WATER lock pattern).
        for section in range(n_ranks):
            s_lo, s_hi = row_block(n, section, n_ranks)
            contribution = local[s_lo:s_hi, :]
            if not contribution.any():
                continue
            yield from api.jia_lock(FORCE_LOCK_BASE + section)
            current = yield from F.get_g((slice(s_lo, s_hi), slice(None)))
            yield from F.set_g((slice(s_lo, s_hi), slice(None)),
                               current + contribution)
            yield from api.jia_unlock(FORCE_LOCK_BASE + section)
        yield from api.jia_barrier()

        # Integrate own molecules, then reset own force section.
        own = yield from X.get_g((slice(lo, hi), slice(None)))
        frc = yield from F.get_g((slice(lo, hi), slice(None)))
        yield from X.set_g((slice(lo, hi), slice(None)), own + DT * frc)
        yield compute_cost(api, 6.0 * (hi - lo))
        yield from api.jia_barrier()
        yield from F.set_g((slice(lo, hi), slice(None)), 0.0)
        yield from api.jia_barrier()
    t_comp = (yield from api.jia_wtime()) - t1

    verified = True
    checksum = 0.0
    if verify:
        ref, checksum = reference_once_per_run(
            api, ("water", "reference", n, seed, steps),
            lambda: _reference(initial, steps))
        mine = yield from X.get_g((slice(lo, hi), slice(None)))
        verified = bool(np.allclose(mine, ref[lo:hi, :], atol=1e-8))
    yield from api.jia_exit()

    return AppResult(app=f"water{n}", rank=rank,
                     phases={"init": t_init, "compute": t_comp,
                             "total": t_init + t_comp},
                     verified=verified, checksum=checksum,
                     extra={"molecules": n, "steps": steps})
