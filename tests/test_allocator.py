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

    def test_coalescing_restores_one_block(self):
        a = make_allocator(capacity=8 * PAGE)
        regions = [a.alloc(2 * PAGE) for _ in range(4)]
        # Free out of order to exercise left+right merging.
        for r in (regions[1], regions[3], regions[0], regions[2]):
            a.free(r)
        assert a.largest_free_block() == 8 * PAGE

    def test_free_space_left_in_pieces(self):
        a = make_allocator(capacity=6 * PAGE)
        keep = []
        for i in range(3):
            keep.append(a.alloc(PAGE))
            a.alloc(PAGE)
        for r in keep:
            a.free(r)  # free every other page -> fragmented
        assert a.free_bytes() == 3 * PAGE
        assert a.largest_free_block() == PAGE


class TestAllocatorProperty:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]),
                  st.integers(1, 5)), min_size=1, max_size=40))
    def test_invariants_under_random_workload(self, ops):
        """Accounting invariants hold for any alloc/free sequence:
        allocated + free == capacity, live regions never overlap, and
        freeing everything restores a single free block."""
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
            assert a.allocated_bytes + a.free_bytes() == capacity
            spans = sorted((r.gaddr, r.end) for r in live)
            for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
                assert e1 <= s2
        for r in live:
            a.free(r)
        assert a.free_bytes() == capacity
        assert a.largest_free_block() == capacity
