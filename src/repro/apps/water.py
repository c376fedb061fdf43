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
                               reference_once_per_run, row_block)
from repro.memory.layout import block

__all__ = ["run_water"]

#: lock-id base for the per-section force locks
FORCE_LOCK_BASE = 100
DT = 1e-3
EPS = 0.25


def _pair_forces(pos: np.ndarray, i_lo: int, i_hi: int) -> np.ndarray:
    """Forces on all molecules from pairs (i, j>i) with i in [i_lo, i_hi)."""
    n = pos.shape[0]
    forces = np.zeros_like(pos)
    for i in range(i_lo, i_hi):
        delta = pos[i + 1:] - pos[i]                    # (n-i-1, 3)
        r2 = (delta * delta).sum(axis=1) + EPS
        inv = 1.0 / (r2 * r2 * np.sqrt(r2))             # ~ 1/r^5 kernel
        f = delta * inv[:, None]
        forces[i] -= f.sum(axis=0)
        forces[i + 1:] += f
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
    rank, n_ranks = yield from api.jia_init_g()
    n = molecules

    t0 = yield from api.jia_wtime_g()
    X = yield from api.jia_alloc_array_g((n, 3), np.float64, name="water.pos",
                                         distribution=block())
    F = yield from api.jia_alloc_array_g((n, 3), np.float64, name="water.frc",
                                         distribution=block())
    initial = once_per_run(
        api, ("water", "input", n, seed),
        lambda: np.random.default_rng(seed).random((n, 3)) * 10.0)
    if verify:
        reference = reference_once_per_run(
            api, ("water", "reference", n, seed, steps),
            lambda: _reference(initial, steps),
            flops=steps * (300.0 * n * (n - 1) / 2 + 6.0 * n))
    lo, hi = row_block(n, rank, n_ranks)
    yield from X.set_g((slice(lo, hi), slice(None)), initial[lo:hi, :])
    if rank == 0:
        yield from F.set_g((slice(None), slice(None)), 0.0)
    yield from api.jia_barrier_g()
    t_init = (yield from api.jia_wtime_g()) - t0

    t1 = yield from api.jia_wtime_g()
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
            yield from api.jia_lock_g(FORCE_LOCK_BASE + section)
            current = yield from F.get_g((slice(s_lo, s_hi), slice(None)))
            yield from F.set_g((slice(s_lo, s_hi), slice(None)),
                               current + contribution)
            yield from api.jia_unlock_g(FORCE_LOCK_BASE + section)
        yield from api.jia_barrier_g()

        # Integrate own molecules, then reset own force section.
        own = yield from X.get_g((slice(lo, hi), slice(None)))
        frc = yield from F.get_g((slice(lo, hi), slice(None)))
        yield from X.set_g((slice(lo, hi), slice(None)), own + DT * frc)
        yield compute_cost(api, 6.0 * (hi - lo))
        yield from api.jia_barrier_g()
        yield from F.set_g((slice(lo, hi), slice(None)), 0.0)
        yield from api.jia_barrier_g()
    t_comp = (yield from api.jia_wtime_g()) - t1

    verified = True
    checksum = 0.0
    if verify:
        ref, checksum = reference.result()
        mine = yield from X.get_g((slice(lo, hi), slice(None)))
        verified = bool(np.allclose(mine, ref[lo:hi, :], atol=1e-8))
    yield from api.jia_exit_g()

    return AppResult(app=f"water{n}", rank=rank,
                     phases={"init": t_init, "compute": t_comp,
                             "total": t_init + t_comp},
                     verified=verified, checksum=checksum,
                     extra={"molecules": n, "steps": steps})
