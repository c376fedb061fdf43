"""Tests for the adaptive single-writer write detection in the SW-DSM.

A home page dirtied ``ASSUME_STREAK`` intervals in a row stops being
re-protected (no more faults); it is auto-announced every interval and
revalidated every ``ASSUME_REVALIDATE``-th interval. The optimization must
be invisible to correctness and strictly reduce fault counts for
iterative owner-computes workloads (the SOR-opt pattern).
"""

import numpy as np
import pytest

from repro.config import preset
from repro.dsm.jiajia import JiaJiaSystem
from repro.memory.layout import block, single_home
from repro.memory.page import PageState
from tests.conftest import spmd


def build():
    return preset("sw-dsm-2").build()


class TestAssumptionLifecycle:
    def test_page_enters_assumption_after_streak(self):
        plat = build()
        dsm = plat.dsm

        def main(env):
            A = env.alloc_array((512,), name="A", distribution=single_home(0))
            env.barrier()
            page = A.region.first_page
            states = []
            for _ in range(JiaJiaSystem.ASSUME_STREAK + 1):
                if env.rank == 0:
                    A[0] = 1.0
                env.barrier()
                if env.rank == 0:
                    states.append((dsm._ptables[0].state(page),
                                   page in dsm._assumed[0]))
            return states if env.rank == 0 else None

        states = spmd(plat, main)[0]
        # Before the streak completes: re-protected to RO, not assumed.
        assert states[0] == (PageState.READ_ONLY, False)
        # After ASSUME_STREAK dirty intervals: left writable, assumed.
        assert states[JiaJiaSystem.ASSUME_STREAK - 1][1] is True
        assert states[JiaJiaSystem.ASSUME_STREAK - 1][0] == PageState.READ_WRITE

    def test_faults_drop_once_assumed(self):
        plat = build()
        dsm = plat.dsm
        iters = JiaJiaSystem.ASSUME_STREAK + 4  # inside one revalidation window

        def main(env):
            A = env.alloc_array((512,), name="A", distribution=single_home(0))
            env.barrier()
            for _ in range(iters):
                if env.rank == 0:
                    A[0] = 1.0
                env.barrier()
            return dsm.stats(env.rank)["write_faults"]

        faults = spmd(plat, main)[0]
        # Only the streak-building intervals fault; assumed ones are free.
        assert faults == JiaJiaSystem.ASSUME_STREAK

    def test_revalidation_reprotects(self):
        plat = build()
        dsm = plat.dsm
        streak, reval = JiaJiaSystem.ASSUME_STREAK, JiaJiaSystem.ASSUME_REVALIDATE
        iters = streak + reval + 1

        def main(env):
            A = env.alloc_array((512,), name="A", distribution=single_home(0))
            env.barrier()
            page = A.region.first_page
            for _ in range(iters):
                if env.rank == 0:
                    A[0] = 1.0
                env.barrier()
            # The revalidation dropped and re-entered the assumption;
            # faults = streak buildup + one revalidation fault.
            return dsm.stats(0)["write_faults"] if env.rank == 0 else None

        faults = spmd(plat, main)[0]
        assert faults == JiaJiaSystem.ASSUME_STREAK + 1

    def test_notices_still_flow_while_assumed(self):
        """Correctness: readers keep seeing every update even when the
        writer's page no longer faults."""
        plat = build()

        def main(env):
            A = env.alloc_array((512,), name="A", distribution=single_home(0))
            env.barrier()
            seen = []
            for it in range(JiaJiaSystem.ASSUME_STREAK + 3):
                if env.rank == 0:
                    A[0] = float(it + 1)
                env.barrier()
                if env.rank == 1:
                    seen.append(float(A[0]))
                env.barrier()
            return seen if env.rank == 1 else None

        seen = spmd(plat, main)[1]
        assert seen == [float(i + 1) for i in range(len(seen))]

    def test_streak_resets_on_quiet_interval(self):
        plat = build()
        dsm = plat.dsm

        def main(env):
            A = env.alloc_array((512,), name="A", distribution=single_home(0))
            env.barrier()
            page = A.region.first_page
            # Alternate dirty/quiet: the streak never completes.
            for it in range(2 * JiaJiaSystem.ASSUME_STREAK):
                if env.rank == 0 and it % 2 == 0:
                    A[0] = 1.0
                env.barrier()
            return page in dsm._assumed[0] if env.rank == 0 else None

        assert spmd(plat, main)[0] is False

    def test_remote_pages_never_assumed(self):
        """Only home pages may skip detection (remote pages need twins)."""
        plat = build()
        dsm = plat.dsm

        def main(env):
            A = env.alloc_array((512,), name="A", distribution=single_home(0))
            env.barrier()
            page = A.region.first_page
            for _ in range(JiaJiaSystem.ASSUME_STREAK + 2):
                if env.rank == 1:       # remote writer
                    A[0] = 1.0
                env.barrier()
            return page in dsm._assumed[1] if env.rank == 1 else None

        assert spmd(plat, main)[1] is False

    def test_sor_like_fault_reduction_end_to_end(self):
        """Fault counts on the SOR-opt pattern drop well below one fault
        per page per interval once the assumption engages."""
        plat = build()
        dsm = plat.dsm
        iters = 12

        def main(env):
            A = env.alloc_array((16, 512), name="grid", distribution=block())
            env.barrier()
            rows = 8
            lo = env.rank * rows
            for _ in range(iters):
                A[lo:lo + rows, :] = float(env.rank)
                env.barrier()
            return dsm.stats(env.rank)["write_faults"]

        faults = spmd(plat, main)[0]
        pages_per_rank = 8  # 8 rows x 4 KiB
        naive = pages_per_rank * iters
        assert faults < naive / 2
