"""Property tests for the sharing detectors (hypothesis).

The detectors advertise two hard guarantees:

* a page with a **single writer** never flags as ping-pong (and therefore
  never as false sharing) — alternations are zero by construction;
* the output is **deterministic and order-independent**: any permutation
  of the same event multiset yields the same verdicts, because the
  detectors sort by ``(t, page, rank)`` before compressing.

These are exactly the invariants a diagnosis tool must not break — a
flaky or order-sensitive detector would send someone padding arrays that
were never falsely shared.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.obs.diagnose import (classify_sharing, compress_writers,
                                group_pages, ping_pong_pages)
from repro.obs.sharing import merge_interval

# (t, page, rank) protocol-write events over a small universe so
# collisions (same page, many ranks) actually happen.
EVENTS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=5),     # page
        st.integers(min_value=0, max_value=3)),    # rank
    max_size=60)

INTERVALS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=64),
              st.integers(min_value=0, max_value=64)).map(
        lambda ab: [min(ab), max(ab)]),
    max_size=12)

RANGES_BY_RANK = st.dictionaries(
    st.integers(min_value=0, max_value=3), INTERVALS, max_size=4)


class TestSingleWriter:
    @given(page=st.integers(min_value=0, max_value=99),
           rank=st.integers(min_value=0, max_value=7),
           times=st.lists(st.floats(min_value=0.0, max_value=1e3,
                                    allow_nan=False, allow_infinity=False),
                          min_size=1, max_size=50))
    def test_never_flags_as_ping_pong(self, page, rank, times):
        events = [(t, page, rank) for t in times]
        assert ping_pong_pages(events, min_alternations=1, min_rate=0.0) == {}

    @given(ivs=INTERVALS)
    def test_single_rank_never_classifies(self, ivs):
        assert classify_sharing({0: ivs}) == "unknown"


class TestOrderIndependence:
    @given(events=EVENTS, seed=st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def test_ping_pong_invariant_under_permutation(self, events, seed):
        shuffled = list(events)
        seed.shuffle(shuffled)
        base = ping_pong_pages(events, min_alternations=2)
        assert ping_pong_pages(shuffled, min_alternations=2) == base

    @given(events=EVENTS)
    def test_ping_pong_invariant_under_reversal(self, events):
        assert (ping_pong_pages(reversed(events), min_alternations=1)
                == ping_pong_pages(events, min_alternations=1))

    @given(events=st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=0, max_value=3)), max_size=40),
        seed=st.randoms(use_true_random=False))
    def test_compress_writers_order_independent(self, events, seed):
        shuffled = list(events)
        seed.shuffle(shuffled)
        assert compress_writers(shuffled) == compress_writers(events)

    @given(ranges=RANGES_BY_RANK)
    def test_classify_independent_of_interval_order(self, ranges):
        base = classify_sharing(ranges)
        reversed_ivs = {r: list(reversed(ivs)) for r, ivs in ranges.items()}
        assert classify_sharing(reversed_ivs) == base


class TestDetectorSoundness:
    @given(events=EVENTS)
    def test_flagged_pages_really_alternate(self, events):
        found = ping_pong_pages(events, min_alternations=2)
        for page, info in found.items():
            assert info["alternations"] >= 2
            assert len(info["ranks"]) >= 2
            assert info["writes"] >= info["alternations"] + 1
            t0, t1 = info["window"]
            assert t0 <= t1

    @given(events=EVENTS,
           thresh=st.integers(min_value=1, max_value=10))
    def test_threshold_is_monotone(self, events, thresh):
        loose = set(ping_pong_pages(events, min_alternations=thresh))
        tight = set(ping_pong_pages(events, min_alternations=thresh + 1))
        assert tight <= loose

    def test_nested_interval_does_not_hide_overlap(self):
        """The example that falsified the adjacent-pairs sweep: rank 0's
        [1, 2) sorts between its own [0, 3) and rank 1's [2, 3), so no two
        *neighbouring* intervals of different ranks overlap."""
        assert classify_sharing({0: [[0, 3], [1, 2]], 1: [[2, 3]]}) == "true"
        assert classify_sharing({0: [[0, 2], [1, 2]], 1: [[2, 3]]}) == "false"

    @given(ranges=RANGES_BY_RANK)
    def test_classification_matches_overlap_oracle(self, ranges):
        verdict = classify_sharing(ranges)
        # brute-force byte-level oracle
        bytes_by_rank = {
            r: {b for lo, hi in ivs for b in range(lo, hi)}
            for r, ivs in ranges.items()}
        writers = [r for r, bs in bytes_by_rank.items() if bs]
        overlap = any(bytes_by_rank[a] & bytes_by_rank[b]
                      for i, a in enumerate(writers)
                      for b in writers[i + 1:])
        if len(writers) < 2:
            assert verdict == "unknown"
        elif overlap:
            assert verdict == "true"
        else:
            assert verdict == "false"


class TestIntervalMerge:
    @given(spans=st.lists(st.tuples(
        st.integers(min_value=0, max_value=128),
        st.integers(min_value=0, max_value=128)), max_size=20))
    def test_merge_matches_byte_set(self, spans):
        ivs = []
        expected = set()
        for a, b in spans:
            lo, hi = min(a, b), max(a, b)
            merge_interval(ivs, lo, hi)
            expected |= set(range(lo, hi))
        got = {b for lo, hi in ivs for b in range(lo, hi)}
        assert got == expected
        # sorted and pairwise disjoint (not even adjacent)
        for (lo_a, hi_a), (lo_b, hi_b) in zip(ivs, ivs[1:]):
            assert hi_a < lo_b


class TestGroupPages:
    @given(pages=st.lists(st.integers(min_value=0, max_value=50),
                          max_size=30),
           seed=st.randoms(use_true_random=False))
    def test_groups_cover_exactly_the_input_set(self, pages, seed):
        shuffled = list(pages)
        seed.shuffle(shuffled)
        groups = group_pages(shuffled)
        assert groups == group_pages(pages)
        covered = {p for a, b in groups for p in range(a, b + 1)}
        assert covered == set(pages)
        for (a1, b1), (a2, b2) in zip(groups, groups[1:]):
            assert b1 + 1 < a2   # maximal: no two groups are mergeable
