"""Page-span coalescing: geometry edge cases and fault-sequence identity.

Spans are a host-side compression of per-page accounting — two integers
per contiguous extent instead of a page list. These tests pin the contract
down at every layer:

* ``Region.span_for`` / ``SharedArray.spans_for_index`` geometry —
  mid-page slice boundaries, one element on each of two pages,
  zero-length views;
* ``PageTable.faulting_in_spans`` returns *identical* fault lists and
  fault counters to the per-page ``faulting_pages`` walk, including spans
  that cross protection-state boundaries;
* the JiaJia access path produces the same fault/fetch sequence (and the
  same dirty sets) as per-page accounting did.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import preset
from repro.memory.layout import single_home
from repro.memory.page import PageState, PageTable
from tests.conftest import spmd

PAGE = 4096
PER_PAGE = PAGE // 8  # float64 items per page


def build(nodes=2, **kw):
    cfg = preset(f"sw-dsm-{nodes}")
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg.build()


# ---------------------------------------------------------------- geometry
class TestSpanGeometry:
    def _array(self, plat, n_items=3 * PER_PAGE):
        holder = {}

        def main(env):
            arr = env.hamster.memory.alloc_array_collective(
                (n_items,), name="geo", distribution=single_home(0))
            if env.rank == 0:
                holder["arr"] = arr
            env.barrier()

        spmd(plat, main)
        return holder["arr"]

    def test_spans_match_pages_everywhere(self):
        arr = self._array(build())
        for index in [slice(None), slice(0, 1), slice(100, 200),
                      slice(PER_PAGE - 1, PER_PAGE + 1),
                      slice(PER_PAGE, 2 * PER_PAGE),
                      slice(37, 2 * PER_PAGE + 511)]:
            spans = arr.spans_for_index(index)
            expanded = [p for a, b in spans for p in range(a, b + 1)]
            assert expanded == arr.pages_for_index(index)

    def test_contiguous_slice_is_one_span(self):
        """A multi-page contiguous slice coalesces to a single extent."""
        arr = self._array(build())
        first = arr.region.first_page
        assert arr.spans_for_index(slice(None)) == [(first, first + 2)]
        assert arr.spans_for_index(slice(10, PER_PAGE + 10)) == [(first, first + 1)]

    def test_one_element_on_each_of_two_pages(self):
        arr = self._array(build())
        first = arr.region.first_page
        spans = arr.spans_for_index(slice(PER_PAGE - 1, PER_PAGE + 1))
        assert spans == [(first, first + 1)]
        assert arr.pages_for_index(slice(PER_PAGE - 1, PER_PAGE + 1)) == [
            first, first + 1]

    def test_mid_page_slice_stays_on_one_page(self):
        arr = self._array(build())
        first = arr.region.first_page
        assert arr.spans_for_index(slice(1, PER_PAGE - 1)) == [(first, first)]

    def test_zero_length_view_has_no_spans(self):
        arr = self._array(build())
        assert arr.spans_for_index(slice(5, 5)) == []
        assert arr.pages_for_index(slice(5, 5)) == []

    def test_zero_length_span_for(self):
        arr = self._array(build())
        assert arr.region.span_for(0, 0) is None
        assert arr.region.span_for(PAGE - 1, 2) == (
            arr.region.first_page, arr.region.first_page + 1)


# ----------------------------------------------------- page-table walk
_states = st.dictionaries(st.integers(min_value=0, max_value=48),
                          st.sampled_from([PageState.READ_ONLY,
                                           PageState.READ_WRITE]),
                          max_size=32)
_spans = st.lists(
    st.tuples(st.integers(min_value=0, max_value=48),
              st.integers(min_value=0, max_value=6)),
    max_size=6).map(lambda raw: sorted((a, a + ln) for a, ln in raw))


class TestFaultingInSpans:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(states=_states, spans=_spans, write=st.booleans())
    def test_identical_to_per_page_walk(self, states, spans, write):
        span_pt, page_pt = PageTable("span"), PageTable("page")
        for p, s in states.items():
            span_pt.set_state(p, s)
            page_pt.set_state(p, s)
        pages = [p for a, b in spans for p in range(a, b + 1)]
        assert (span_pt.faulting_in_spans(spans, write)
                == page_pt.faulting_pages(pages, write))
        assert span_pt.read_faults == page_pt.read_faults
        assert span_pt.write_faults == page_pt.write_faults

    def test_expansion_only_at_state_boundaries(self):
        """A span crossing INVALID → READ_ONLY → READ_WRITE expands to
        exactly the pages the per-page MMU walk would have faulted."""
        pt = PageTable()
        pt.set_state(11, PageState.READ_ONLY)
        pt.set_state(12, PageState.READ_WRITE)
        assert pt.faulting_in_spans([(10, 13)], write=False) == [10, 13]
        assert pt.faulting_in_spans([(10, 13)], write=True) == [10, 11, 13]
        assert pt.read_faults == 2
        assert pt.write_faults == 3


# ------------------------------------------------------- DSM fault sequence
class TestDsmFaultSequence:
    def test_boundary_write_faults_both_pages(self):
        """One element on each of two remote pages: two write faults, two
        fetches, two twins, both pages dirty."""
        plat = build()
        dsm = plat.dsm

        def main(env):
            A = env.hamster.memory.alloc_array_collective(
                (2 * PER_PAGE,), name="edge", distribution=single_home(0))
            if env.rank == 0:
                A[:] = 1.0
            env.barrier()
            if env.rank == 1:
                A[PER_PAGE - 1:PER_PAGE + 1] = 9.0
                return dsm.stats(1)
            return None

        st1 = spmd(plat, main)[1]
        assert st1["write_faults"] == 2
        assert st1["pages_fetched"] == 2
        assert st1["twins_created"] == 2
        assert len(dsm._dirty[1]) == 2

    def test_mid_page_slice_single_fault(self):
        plat = build()
        dsm = plat.dsm

        def main(env):
            A = env.hamster.memory.alloc_array_collective(
                (2 * PER_PAGE,), name="mid", distribution=single_home(0))
            env.barrier()
            if env.rank == 1:
                A[10:20] = 3.0
                return dsm.stats(1)
            return None

        st1 = spmd(plat, main)[1]
        assert st1["write_faults"] == 1
        assert st1["pages_fetched"] == 1

    def test_second_access_faults_nothing(self):
        """Re-touching pages already writable must not expand the span."""
        plat = build()
        dsm = plat.dsm

        def main(env):
            A = env.hamster.memory.alloc_array_collective(
                (2 * PER_PAGE,), name="re", distribution=single_home(0))
            env.barrier()
            if env.rank == 1:
                A[:] = 1.0
                before = dsm.stats(1)["write_faults"]
                A[5:2 * PER_PAGE - 5] = 2.0
                return before, dsm.stats(1)["write_faults"]
            return None

        before, after = spmd(plat, main)[1]
        assert before == 2 and after == 2

    def test_zero_length_access_is_free(self):
        plat = build()
        dsm = plat.dsm

        def main(env):
            A = env.hamster.memory.alloc_array_collective(
                (PER_PAGE,), name="z", distribution=single_home(0))
            env.barrier()
            if env.rank == 1:
                _ = A[7:7]
                return dsm.stats(1)
            return None

        st1 = spmd(plat, main)[1]
        assert st1["read_faults"] == 0
        assert st1["pages_fetched"] == 0

    def test_fault_sequence_matches_per_page_reference(self):
        """The ordered fetch sequence (from the trace) must equal the page
        order the old per-page walk produced: ascending within each access."""
        cfg = preset("sw-dsm-2")
        cfg.trace = True
        plat = cfg.build()

        def main(env):
            A = env.hamster.memory.alloc_array_collective(
                (3 * PER_PAGE,), name="seq", distribution=single_home(0))
            if env.rank == 0:
                A[:] = 1.0
            env.barrier()
            if env.rank == 1:
                _ = A[PER_PAGE - 3:2 * PER_PAGE + 3]  # pages 0..2, one access
            env.barrier()

        spmd(plat, main)
        fetched = [ev.fields["page"] for ev in plat.engine.trace
                   if ev.kind == "jj.fetch" and ev.fields["rank"] == 1]
        assert fetched == sorted(fetched)
        assert len(fetched) == 3

    def test_results_unchanged_by_spans(self):
        """End to end: a boundary-heavy kernel computes the same bytes as
        plain numpy."""
        plat = build()

        def main(env):
            A = env.hamster.memory.alloc_array_collective(
                (2 * PER_PAGE,), name="bytes", distribution=single_home(0))
            lo = env.rank * PER_PAGE
            A[lo:lo + PER_PAGE] = float(env.rank + 1)
            env.barrier()
            if env.rank == 0:
                A[PER_PAGE - 1:PER_PAGE + 1] = 5.0  # straddles the boundary
            env.barrier()
            return A[:].tobytes()

        ref = np.concatenate([np.full(PER_PAGE, 1.0), np.full(PER_PAGE, 2.0)])
        ref[PER_PAGE - 1:PER_PAGE + 1] = 5.0
        out = spmd(plat, main)
        assert out[0] == out[1] == ref.tobytes()
