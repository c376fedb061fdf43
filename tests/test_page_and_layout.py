"""Unit tests for page tables and distribution annotations."""

import pytest

from repro.errors import ConfigurationError, ProtectionError
from repro.memory.layout import block, cyclic, explicit, first_touch, single_home
from repro.memory.page import PageState, PageTable


class TestPageState:
    def test_allows_matrix(self):
        assert not PageState.INVALID.allows(write=False)
        assert not PageState.INVALID.allows(write=True)
        assert PageState.READ_ONLY.allows(write=False)
        assert not PageState.READ_ONLY.allows(write=True)
        assert PageState.READ_WRITE.allows(write=False)
        assert PageState.READ_WRITE.allows(write=True)


class TestPageTable:
    def test_default_state_is_invalid(self):
        pt = PageTable()
        assert pt.state(123) is PageState.INVALID

    def test_set_and_invalidate(self):
        pt = PageTable()
        pt.set_state(5, PageState.READ_WRITE)
        assert pt.state(5) is PageState.READ_WRITE
        pt.invalidate(5)
        assert pt.state(5) is PageState.INVALID
        assert len(pt) == 0

    def test_setting_invalid_removes_entry(self):
        pt = PageTable()
        pt.set_state(5, PageState.READ_ONLY)
        pt.set_state(5, PageState.INVALID)
        assert len(pt) == 0

    def test_faulting_pages_and_counters(self):
        pt = PageTable()
        pt.set_state(1, PageState.READ_ONLY)
        pt.set_state(2, PageState.READ_WRITE)
        assert pt.faulting_pages([1, 2, 3], write=False) == [3]
        assert pt.faulting_pages([1, 2, 3], write=True) == [1, 3]
        assert pt.read_faults == 1 and pt.write_faults == 2

    def test_invalidate_many_counts_only_valid(self):
        pt = PageTable()
        pt.set_state(1, PageState.READ_ONLY)
        pt.set_state(2, PageState.READ_ONLY)
        assert pt.invalidate_many([1, 2, 99]) == 2

    def test_check_raises_protection_error(self):
        pt = PageTable("pt0")
        pt.set_state(1, PageState.READ_ONLY)
        pt.check(1, write=False)
        with pytest.raises(ProtectionError):
            pt.check(1, write=True)
        with pytest.raises(ProtectionError):
            pt.check(2, write=False)

    def test_valid_pages_sorted(self):
        pt = PageTable()
        for p in (9, 2, 5):
            pt.set_state(p, PageState.READ_ONLY)
        assert pt.valid_pages() == [2, 5, 9]


class TestDistributions:
    def test_block(self):
        homes = block().assign(8, 4)
        assert homes == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_block_uneven(self):
        homes = block().assign(5, 4)
        assert homes == [0, 0, 1, 1, 2]  # ceil(5/4)=2 per node, clamped

    def test_cyclic(self):
        assert cyclic().assign(6, 4) == [0, 1, 2, 3, 0, 1]

    def test_single_home(self):
        assert single_home(2).assign(4, 4) == [2, 2, 2, 2]

    def test_single_home_invalid_node(self):
        with pytest.raises(ConfigurationError):
            single_home(7).assign(4, 4)

    def test_explicit(self):
        assert explicit([3, 1, 0]).assign(3, 4) == [3, 1, 0]

    def test_explicit_wrong_length(self):
        with pytest.raises(ConfigurationError):
            explicit([0, 1]).assign(3, 4)

    def test_explicit_bad_node(self):
        with pytest.raises(ConfigurationError):
            explicit([0, 9, 0]).assign(3, 4)

    def test_explicit_bad_node_names_the_first(self):
        with pytest.raises(ConfigurationError,
                           match="placed page 1 on invalid node 9 .cluster has 4"):
            explicit([0, 9, -1]).assign(3, 4)

    def test_first_touch_is_lazy(self):
        d = first_touch()
        assert d.lazy
        assert d.assign(3, 4) == [None, None, None]

    def test_eager_policies_not_lazy(self):
        for d in (block(), cyclic(), single_home(0), explicit([0])):
            assert not d.lazy
