"""Unit + property tests for SharedArray indexing and run lowering."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import preset
from repro.memory.shared_array import index_runs
from tests.conftest import spmd


# ---------------------------------------------------------------- index_runs
def brute_force_bytes(bounds, shape, itemsize):
    """Reference: enumerate every touched byte."""
    arr = np.arange(int(np.prod(shape))).reshape(shape)
    idx = tuple(slice(lo, hi) for lo, hi in bounds)
    touched = set()
    for element in np.asarray(arr[idx]).reshape(-1):
        start = int(element) * itemsize
        touched.update(range(start, start + itemsize))
    return touched


class TestIndexRuns:
    def test_full_2d_is_one_run(self):
        runs = index_runs([(0, 4), (0, 8)], (4, 8), 8)
        assert runs == [(0, 4 * 8 * 8)]

    def test_row_slice_is_one_run(self):
        runs = index_runs([(1, 3), (0, 8)], (4, 8), 8)
        assert runs == [(1 * 64, 2 * 64)]

    def test_column_slice_is_per_row_runs(self):
        runs = index_runs([(0, 4), (2, 5)], (4, 8), 8)
        assert len(runs) == 4
        assert runs[0] == (2 * 8, 3 * 8)

    def test_adjacent_runs_merge(self):
        # Middle rows, all columns: per-row runs merge into one.
        runs = index_runs([(1, 3), (0, 8)], (4, 8), 8)
        assert len(runs) == 1

    def test_empty_selection(self):
        assert index_runs([(2, 2), (0, 8)], (4, 8), 8) == []

    def test_1d(self):
        assert index_runs([(3, 7)], (16,), 8) == [(24, 32)]

    def test_3d_inner_full(self):
        runs = index_runs([(0, 2), (1, 2), (0, 4)], (2, 3, 4), 8)
        assert runs == [(1 * 32, 32), (3 * 32 + 32, 32)]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_bruteforce(self, data):
        ndim = data.draw(st.integers(1, 3))
        shape = tuple(data.draw(st.integers(1, 6)) for _ in range(ndim))
        bounds = []
        for n in shape:
            lo = data.draw(st.integers(0, n))
            hi = data.draw(st.integers(lo, n))
            bounds.append((lo, hi))
        itemsize = data.draw(st.sampled_from([1, 4, 8]))
        runs = index_runs(bounds, shape, itemsize)
        got = set()
        for off, ln in runs:
            got.update(range(off, off + ln))
        assert got == brute_force_bytes(bounds, shape, itemsize)
        # Runs are sorted, merged, non-overlapping.
        for (o1, l1), (o2, _l2) in zip(runs, runs[1:]):
            assert o1 + l1 < o2

    @pytest.mark.parametrize("bounds,shape", [
        ([(1, 5), (2, 7)], (8, 8)),                # 2-D, partial rows
        ([(0, 3), (1, 4), (2, 6)], (3, 5, 8)),     # 3-D, partial everywhere
        ([(1, 2), (0, 5), (0, 8)], (3, 5, 8)),     # 3-D, full inner suffix
        ([(0, 3), (2, 4), (0, 8)], (3, 5, 8)),     # 3-D, partial middle dim
    ])
    def test_leaves_no_garbage_for_the_collector(self, bounds, shape):
        """Lowering a multi-row access builds no reference cycle: the
        collector, kept off meanwhile, finds nothing to free after it."""
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                assert index_runs(bounds, shape, 8)
            assert gc.collect() == 0
        finally:
            gc.enable()


# ------------------------------------------------------------- SharedArray
class TestSharedArrayAccess:
    def test_roundtrip_2d(self, smp2):
        def main(env):
            A = env.alloc_array((8, 8), name="A")
            if env.rank == 0:
                A[2:4, 1:5] = np.arange(8).reshape(2, 4)
            env.barrier()
            return A[2:4, 1:5].tolist()

        res = spmd(smp2, main)
        assert res[0] == res[1] == np.arange(8).reshape(2, 4).tolist()

    def test_integer_index(self, smp2):
        def main(env):
            A = env.alloc_array((4, 4), name="A")
            A[env.rank, 2] = float(env.rank)
            env.barrier()
            return float(A[1 - env.rank, 2])

        assert spmd(smp2, main) == [1.0, 0.0]

    def test_negative_index_normalized(self, smp2):
        def main(env):
            A = env.alloc_array((4,), name="A")
            if env.rank == 0:
                A[-1] = 9.0
            env.barrier()
            return float(A[3])

        assert spmd(smp2, main) == [9.0, 9.0]

    def test_getitem_returns_private_copy(self, smp2):
        def main(env):
            A = env.alloc_array((4,), name="A")
            if env.rank == 0:
                A[:] = 1.0
            env.barrier()
            view = A[:]
            view[:] = 99.0  # must not write through
            env.barrier()
            return float(A[0])

        assert spmd(smp2, main) == [1.0, 1.0]

    def test_strided_slice_rejected(self, smp2):
        def main(env):
            A = env.alloc_array((8,), name="A")
            with pytest.raises(TypeError):
                A[::2]
            with pytest.raises(TypeError):
                A[np.array([1, 2])]
            return True

        assert all(spmd(smp2, main))

    def test_out_of_range_rejected(self, smp2):
        def main(env):
            A = env.alloc_array((4, 4), name="A")
            with pytest.raises(IndexError):
                A[5, 0]
            with pytest.raises(IndexError):
                A[0, 0, 0]
            return True

        assert all(spmd(smp2, main))

    def test_pages_for_index(self, smp2):
        def main(env):
            A = env.alloc_array((1024, 1024), name="A")  # 8 MiB, 2048 pages
            full = A.pages_for_index((slice(None), slice(None)))
            one_row = A.pages_for_index((0, slice(None)))
            return len(full), len(one_row)

        full, one_row = spmd(smp2, main)[0]
        assert full == 2048
        assert one_row == 2  # 8 KiB row spans exactly 2 pages

    def test_scalar_array(self, smp2):
        def main(env):
            A = env.alloc_array((1,), name="s")
            if env.rank == 0:
                A[0] = 3.5
            env.barrier()
            return float(A[0])

        assert spmd(smp2, main) == [3.5, 3.5]

    def test_len_and_ndim(self, smp2):
        def main(env):
            A = env.alloc_array((6, 2), name="A")
            return len(A), A.ndim

        assert spmd(smp2, main)[0] == (6, 2)

    def test_dtype_int(self, smp2):
        def main(env):
            A = env.alloc_array((4,), dtype=np.int32, name="i")
            if env.rank == 0:
                A[:] = np.array([1, 2, 3, 4], dtype=np.int32)
            env.barrier()
            return A[:].sum()

        assert spmd(smp2, main) == [10, 10]
