"""Unit + property tests for the global allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError
from repro.memory.address_space import GlobalAddressSpace
from repro.memory.allocator import GlobalAllocator

PAGE = 4096


def make_allocator(capacity=64 * PAGE):
    space = GlobalAddressSpace(PAGE)
    return GlobalAllocator(space, capacity=capacity)


class TestAlloc:
    def test_sizes_round_up_to_pages(self):
        a = make_allocator()
        r = a.alloc(1)
        assert r.size == PAGE
        r2 = a.alloc(PAGE + 1)
        assert r2.size == 2 * PAGE

    def test_allocations_do_not_overlap(self):
        a = make_allocator()
        regions = [a.alloc(PAGE) for _ in range(8)]
        spans = sorted((r.gaddr, r.end) for r in regions)
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    def test_zero_or_negative_rejected(self):
        a = make_allocator()
        with pytest.raises(AllocationError):
            a.alloc(0)
        with pytest.raises(AllocationError):
            a.alloc(-5)

    def test_out_of_memory(self):
        a = make_allocator(capacity=4 * PAGE)
        a.alloc(4 * PAGE)
        with pytest.raises(AllocationError, match="out of global memory"):
            a.alloc(PAGE)

    def test_peak_tracking(self):
        a = make_allocator()
        r1 = a.alloc(2 * PAGE)
        a.alloc(PAGE)
        a.free(r1)
        assert a.peak_bytes == 3 * PAGE
        assert a.allocated_bytes == PAGE


class TestFree:
    def test_free_and_reuse(self):
        a = make_allocator(capacity=2 * PAGE)
        r1 = a.alloc(2 * PAGE)
        a.free(r1)
        r2 = a.alloc(2 * PAGE)  # fits again only if space was returned
        assert r2.gaddr == r1.gaddr

    def test_double_free_rejected(self):
        a = make_allocator()
        r = a.alloc(PAGE)
        a.free(r)
        with pytest.raises(AllocationError):
            a.free(r)

    @staticmethod
    def assert_one_free_block(a, start, pages):
        """Behaviourally, the free space holds one ``pages``-page block at
        ``start``: a page more does not fit, the block itself does, there."""
        with pytest.raises(AllocationError):
            a.alloc((pages + 1) * PAGE)
        assert a.alloc(pages * PAGE).gaddr == start

    @pytest.mark.parametrize("order,merged", [
        ((1, 0), (0, 2)),        # the freed block merges with its right
        ((0, 1), (0, 2)),        # ... with its left
        ((0, 2, 1), (0, 3)),     # ... with both at once
        ((1, 3, 0, 2), (0, 4)),  # out of order, every neighbour
    ])
    def test_freed_neighbours_coalesce(self, order, merged):
        a = make_allocator(capacity=5 * PAGE)
        pages = [a.alloc(PAGE) for _ in range(5)]   # the space is full
        for i in order:
            a.free(pages[i])
        first, n = merged
        self.assert_one_free_block(a, pages[first].gaddr, n)

    def test_free_space_left_in_pieces(self):
        a = make_allocator(capacity=6 * PAGE)
        keep = []
        for i in range(3):
            keep.append(a.alloc(PAGE))
            a.alloc(PAGE)
        for r in keep:
            a.free(r)  # free every other page -> fragmented
        with pytest.raises(AllocationError):
            a.alloc(2 * PAGE)
        assert [a.alloc(PAGE).gaddr for _ in keep] == [r.gaddr for r in keep]


class TestAllocatorProperty:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]),
                  st.integers(1, 5)), min_size=1, max_size=40))
    def test_invariants_under_random_workload(self, ops):
        """Accounting invariants hold for any alloc/free sequence: the
        allocated bytes are the live regions' sizes, live regions never
        overlap, and freeing everything restores a single free block."""
        capacity = 64 * PAGE
        a = make_allocator(capacity=capacity)
        live = []
        for op, pages in ops:
            if op == "alloc":
                try:
                    live.append(a.alloc(pages * PAGE))
                except AllocationError:
                    pass
            elif live:
                a.free(live.pop(len(live) // 2))
            assert a.allocated_bytes == sum(r.size for r in live)
            spans = sorted((r.gaddr, r.end) for r in live)
            for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
                assert e1 <= s2
        for r in live:
            a.free(r)
        TestFree.assert_one_free_block(a, GlobalAddressSpace.BASE, 64)
