"""Unit + property tests for the twin/diff machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm.jiajia.diffs import (DIFF_HEADER_BYTES, RUN_HEADER_BYTES,
                                    apply_diff, diff_wire_size, make_diff)
from repro.errors import MemoryError_

PAGE = 4096


def page(values):
    return np.array(values, dtype=np.uint8)


def oracle_runs(twin, current):
    """Reference encoder, one byte at a time: the ``(offset, bytes)`` runs
    JiaJia puts on the wire. The codec under test never builds this list;
    everything it reports must agree with it."""
    runs = []
    for i, (old, new) in enumerate(zip(twin.tolist(), current.tolist())):
        if old == new:
            continue
        if runs and runs[-1][0] + len(runs[-1][1]) == i:
            runs[-1][1].append(new)
        else:
            runs.append((i, [new]))
    return runs


def oracle_apply(target, runs):
    out = target.copy()
    for offset, data in runs:
        for k, value in enumerate(data):
            out[offset + k] = value
    return out


def changes(d):
    """The ``(offsets, values)`` a mask-form diff writes, as lists."""
    if d.mask is None:
        return [], []
    return np.flatnonzero(d.mask).tolist(), d.data[d.mask].tolist()


def assert_matches_oracle(twin, current, home):
    """Encode ``twin -> current`` and apply it to ``home`` both ways."""
    runs = oracle_runs(twin, current)
    changed = sum(len(data) for _, data in runs)
    d = make_diff(3, twin, current)
    assert d.page == 3
    assert d.n_runs == len(runs)
    assert d.changed_bytes == changed
    assert d.empty == (not runs)
    assert type(d.changed_bytes) is int and type(d.n_runs) is int
    assert changes(d) == ([off + k for off, data in runs
                           for k in range(len(data))],
                          [v for _, data in runs for v in data])
    assert diff_wire_size(d) == (DIFF_HEADER_BYTES
                                 + len(runs) * RUN_HEADER_BYTES + changed)
    target = home.copy()
    assert apply_diff(target, d) == changed
    assert np.array_equal(target, oracle_apply(home, runs))
    return d


class TestMakeDiff:
    def test_identical_pages_produce_empty_diff(self):
        twin = page([1, 2, 3, 4])
        d = make_diff(7, twin, twin.copy())
        assert d.empty and d.changed_bytes == 0 and d.n_runs == 0
        assert d.page == 7

    def test_single_run(self):
        twin = page([0] * 8)
        cur = twin.copy()
        cur[2:5] = [9, 9, 9]
        d = make_diff(0, twin, cur)
        assert d.n_runs == 1 and d.changed_bytes == 3
        assert changes(d) == ([2, 3, 4], [9, 9, 9])

    def test_multiple_runs(self):
        twin = page([0] * 10)
        cur = twin.copy()
        cur[0] = 1
        cur[5:7] = 2
        cur[9] = 3
        d = make_diff(0, twin, cur)
        assert d.n_runs == 3
        assert changes(d) == ([0, 5, 6, 9], [1, 2, 2, 3])
        assert d.changed_bytes == 4

    def test_size_mismatch_rejected(self):
        with pytest.raises(MemoryError_):
            make_diff(0, page([1, 2]), page([1, 2, 3]))

    def test_run_data_is_a_copy(self):
        twin = page([0] * 4)
        cur = page([5, 0, 0, 0])
        d = make_diff(0, twin, cur)
        cur[0] = 7
        assert d.data[0] == 5

    def test_dense_float64_page_has_hundreds_of_runs(self):
        """The SOR case the mask form exists for: a stencil update of
        random float64 data changes the low mantissa bytes of every word
        and leaves most exponent bytes alone."""
        rng = np.random.default_rng(12)
        old = rng.random(PAGE // 8)
        new = old.copy()
        new[1:-1] = 0.25 * (old[:-2] + old[2:]) + 0.5 * old[1:-1]
        d = assert_matches_oracle(old.view(np.uint8), new.view(np.uint8),
                                  old.view(np.uint8))
        assert d.n_runs >= 200
        offsets, values = changes(d)
        assert len(offsets) == d.changed_bytes
        assert values == new.view(np.uint8)[offsets].tolist()

    def test_runs_touching_first_and_last_byte(self):
        twin = page([0] * 16)
        cur = twin.copy()
        cur[0] = 1
        cur[15] = 2
        d = assert_matches_oracle(twin, cur, twin)
        assert d.n_runs == 2 and changes(d) == ([0, 15], [1, 2])

    def test_fully_changed_page_is_one_run(self):
        twin = np.zeros(PAGE, dtype=np.uint8)
        cur = np.full(PAGE, 255, dtype=np.uint8)
        d = assert_matches_oracle(twin, cur, twin)
        assert d.n_runs == 1 and d.changed_bytes == PAGE
        assert d.mask.all() and d.data.tolist() == [255] * PAGE
        assert diff_wire_size(d) == DIFF_HEADER_BYTES + RUN_HEADER_BYTES + PAGE

    def test_mask_and_data_are_page_sized_snapshots(self):
        """One bool and one byte per page byte, whatever changed; ``data``
        owns its bytes, so later writes to the page (or the twin) do not
        reach a diff in flight."""
        twin = np.zeros(PAGE, dtype=np.uint8)
        cur = twin.copy()
        cur[PAGE - 1] = 1
        d = make_diff(0, twin, cur)
        assert d.mask.dtype == np.bool_ and d.mask.shape == (PAGE,)
        assert d.data.dtype == np.uint8 and d.data.shape == (PAGE,)
        assert changes(d) == ([PAGE - 1], [1])
        assert not np.shares_memory(d.data, cur)
        assert not np.shares_memory(d.data, twin)
        assert not np.shares_memory(d.mask, twin)
        cur[:] = 7
        twin[:] = 3
        assert changes(d) == ([PAGE - 1], [1]) and d.n_runs == 1

    def test_empty_diff_carries_no_arrays(self):
        twin = np.zeros(PAGE, dtype=np.uint8)
        d = make_diff(0, twin, twin.copy())
        assert d.mask is None and d.data is None
        target = np.ones(PAGE, dtype=np.uint8)
        assert apply_diff(target, d) == 0 and target.all()


class TestApplyDiff:
    def test_apply_reproduces_current(self):
        twin = page(range(16))
        cur = twin.copy()
        cur[3:6] = 0
        cur[12] = 255
        d = make_diff(0, twin, cur)
        target = twin.copy()
        written = apply_diff(target, d)
        assert np.array_equal(target, cur)
        assert written == d.changed_bytes

    def test_out_of_bounds_run_rejected(self):
        d = make_diff(0, page([0, 0]), page([0, 1]))
        with pytest.raises(MemoryError_):
            apply_diff(page([0]), d)

    def test_rejected_diff_leaves_target_untouched(self):
        """Two runs fit and the third does not: nothing is written."""
        twin = page([0] * 12)
        cur = twin.copy()
        cur[0:2] = 7
        cur[4] = 8
        cur[10:12] = 9
        d = make_diff(0, twin, cur)
        assert d.n_runs == 3
        home = page([1] * 8)
        with pytest.raises(MemoryError_):
            apply_diff(home, d)
        assert home.tolist() == [1] * 8
        # a page one byte longer does not fit, and neither does one a byte
        # shorter, although every changed byte of it would
        for size in (9, 7):
            twin, cur = page([0] * size), page([5] * size)
            edge = make_diff(0, twin, cur)
            assert edge.changed_bytes == size
            with pytest.raises(MemoryError_):
                apply_diff(home, edge)
            assert home.tolist() == [1] * 8

    def test_reapplying_a_diff_is_idempotent(self):
        """Chaos can deliver one ``putdiffs`` twice; the second application
        writes the same bytes and reports the same count."""
        twin = page(range(32))
        cur = twin.copy()
        cur[1:4] = 0
        cur[30] = 0
        d = make_diff(0, twin, cur)
        home = twin.copy()
        first = apply_diff(home, d)
        once = home.copy()
        assert apply_diff(home, d) == first
        assert np.array_equal(home, once) and np.array_equal(home, cur)

    def test_disjoint_diffs_merge_at_home(self):
        """The multiple-writer property: two writers of disjoint parts of
        one page both diff against the same twin; both diffs applied to the
        home yield the union of the writes (false sharing is harmless)."""
        base = page([0] * 16)
        w1 = base.copy()
        w1[0:4] = 1
        w2 = base.copy()
        w2[8:12] = 2
        home = base.copy()
        apply_diff(home, make_diff(0, base, w1))
        apply_diff(home, make_diff(0, base, w2))
        assert home[0:4].tolist() == [1] * 4
        assert home[8:12].tolist() == [2] * 4
        assert home[4:8].tolist() == [0] * 4


class TestWireSize:
    def test_empty_diff_is_header_only(self):
        d = make_diff(0, page([1]), page([1]))
        assert diff_wire_size(d) == DIFF_HEADER_BYTES

    def test_size_formula(self):
        twin = page([0] * 10)
        cur = twin.copy()
        cur[0] = 1
        cur[5] = 1
        d = make_diff(0, twin, cur)
        assert diff_wire_size(d) == DIFF_HEADER_BYTES + 2 * RUN_HEADER_BYTES + 2


class TestDiffProperty:
    @settings(max_examples=60, deadline=None)
    @given(twin=st.lists(st.integers(0, 255), min_size=1, max_size=256),
           changes=st.lists(st.tuples(st.integers(0, 255), st.integers(0, 255)),
                            max_size=32))
    def test_apply_make_is_identity(self, twin, changes):
        """apply(twin, make(twin, cur)) == cur for arbitrary mutations."""
        twin_arr = page(twin)
        cur = twin_arr.copy()
        for pos, val in changes:
            cur[pos % len(cur)] = val
        d = make_diff(0, twin_arr, cur)
        target = twin_arr.copy()
        apply_diff(target, d)
        assert np.array_equal(target, cur)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(),
           twin=st.lists(st.integers(0, 255), min_size=1, max_size=300),
           spans=st.lists(st.tuples(st.integers(0, 299), st.integers(1, 24),
                                    st.integers(0, 255)), max_size=12))
    def test_matches_per_byte_oracle(self, data, twin, spans):
        """Run count, changed bytes, wire size and the applied page agree
        with the naive encoder, also on a home page that other writers have
        already changed."""
        twin_arr = page(twin)
        cur = twin_arr.copy()
        for start, length, val in spans:
            cur[start % len(cur):start % len(cur) + length] = val
        home = page(data.draw(st.lists(st.integers(0, 255),
                                       min_size=len(twin), max_size=len(twin))))
        assert_matches_oracle(twin_arr, cur, home)


def previous_codec(twin, current, home):
    """The index-form codec the mask form replaced: the ascending offsets
    of the changed bytes, their values, the run count, the wire size and
    the home page after ``home[index] = values``. The rewrite must agree
    with it on every one."""
    neq = twin != current
    index = np.flatnonzero(neq)
    n_runs = int(np.count_nonzero(neq[1:] > neq[:-1])) + int(neq[:1].sum())
    applied = home.copy()
    applied[index] = current[index]
    wire = DIFF_HEADER_BYTES + n_runs * RUN_HEADER_BYTES + index.size
    return index.tolist(), current[index].tolist(), n_runs, wire, applied


@st.composite
def diff_cases(draw):
    """A twin and a changed copy: random scatter, unchanged, fully changed,
    first and/or last byte only, or one run anywhere."""
    size = draw(st.sampled_from([1, 2, 17, 255, 256, 257, PAGE]))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    twin = rng.integers(0, 256, size, dtype=np.uint8)
    cur = twin.copy()
    kind = draw(st.sampled_from(
        ["random", "empty", "full", "first", "last", "ends", "single"]))
    if kind == "random":
        mask = rng.random(size) < draw(st.sampled_from([0.01, 0.3, 0.9]))
        cur[mask] ^= 0xFF
    elif kind == "full":
        cur ^= 0xFF
    elif kind in ("first", "ends"):
        cur[0] ^= 1
    if kind in ("last", "ends"):
        cur[-1] ^= 1
    if kind == "single":
        lo = draw(st.integers(0, size - 1))
        hi = draw(st.integers(lo + 1, size))
        cur[lo:hi] ^= 0x80
    home = rng.integers(0, 256, size, dtype=np.uint8)
    return twin, cur, home


class TestMatchesPreviousCodec:
    @settings(max_examples=150, deadline=None)
    @given(case=diff_cases())
    def test_identical_output(self, case):
        twin, cur, home = case
        index, values, n_runs, wire, applied = previous_codec(twin, cur, home)
        got = make_diff(5, twin, cur)
        assert got.page == 5
        assert changes(got) == (index, values)
        if got.data is not None:
            assert got.data.dtype == cur.dtype
        assert got.n_runs == n_runs and got.changed_bytes == len(index)
        assert type(got.n_runs) is int and type(got.changed_bytes) is int
        assert diff_wire_size(got) == wire
        assert type(diff_wire_size(got)) is int
        target = home.copy()
        assert apply_diff(target, got) == len(index)
        assert np.array_equal(target, applied)
