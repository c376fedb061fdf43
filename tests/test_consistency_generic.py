"""Tests for the generic consistency API (§6): happens-before reasoning,
contracts, and their compiled application-specific models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import preset
from repro.consistency.generic import (GLOBAL_SCOPE, ConsistencyContract,
                                       ContractModel, HappensBefore,
                                       Requirement, SyncEvent)
from repro.errors import ConsistencyError
from tests.conftest import spmd


class TestHappensBefore:
    def _chain(self, model):
        """rank 0: release(L); rank 1: acquire(L) later."""
        hb = HappensBefore(model)
        w = hb.add("release", rank=0, scope=1)
        r = hb.add("acquire", rank=1, scope=1)
        return hb, w, r

    def test_program_order_always_visible(self):
        hb = HappensBefore("scope")
        hb.add("release", 0, 1)
        assert hb.guaranteed_visible(0, 0, 0, 1)
        assert not hb.guaranteed_visible(0, 1, 0, 0)

    def test_same_scope_chain_visible_under_scope(self):
        hb, w, r = self._chain("scope")
        assert hb.guaranteed_visible(0, 0, 1, r.seq)

    def test_cross_scope_not_visible_under_scope(self):
        hb = HappensBefore("scope")
        hb.add("release", 0, 1)       # write released under lock 1
        acq = hb.add("acquire", 1, 2)  # reader takes lock 2
        assert not hb.guaranteed_visible(0, 0, 1, acq.seq)

    def test_cross_scope_visible_under_release(self):
        hb = HappensBefore("release")
        hb.add("release", 0, 1)
        acq = hb.add("acquire", 1, 2)
        assert hb.guaranteed_visible(0, 0, 1, acq.seq)

    def test_barrier_is_global_scope(self):
        hb = HappensBefore("scope")
        hb.add("barrier", 0)
        acq = hb.add("barrier", 1)
        assert hb.guaranteed_visible(0, 0, 1, acq.seq)

    def test_transitive_chain_through_third_rank(self):
        """0 releases L1; 2 acquires L1, releases L2; 1 acquires L2:
        visibility flows transitively even under scope consistency."""
        hb = HappensBefore("scope")
        hb.add("release", 0, 1)
        hb.add("acquire", 2, 1)
        hb.add("release", 2, 2)
        acq = hb.add("acquire", 1, 2)
        assert hb.guaranteed_visible(0, 0, 1, acq.seq)

    def test_acquire_before_release_sees_nothing(self):
        hb = HappensBefore("scope")
        acq = hb.add("acquire", 1, 1)   # too early
        hb.add("release", 0, 1)
        assert not hb.guaranteed_visible(0, 1, 1, acq.seq + 1)

    def test_sequential_orders_everything(self):
        hb = HappensBefore("sequential")
        hb.add("release", 0, 1)
        acq = hb.add("acquire", 1, 99)
        assert hb.guaranteed_visible(0, 0, 1, acq.seq)

    def test_bad_event_kind_rejected(self):
        with pytest.raises(ConsistencyError):
            SyncEvent(kind="mystery", rank=0, scope=0, seq=0)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_scope_visibility_implies_release_visibility(self, data):
        """Lattice property on random traces: anything guaranteed under
        scope consistency is also guaranteed under release consistency
        (RC is strictly stronger)."""
        n_events = data.draw(st.integers(2, 12))
        hb_scope, hb_rel = HappensBefore("scope"), HappensBefore("release")
        for _ in range(n_events):
            kind = data.draw(st.sampled_from(["acquire", "release", "barrier"]))
            rank = data.draw(st.integers(0, 2))
            scope = data.draw(st.integers(1, 3))
            hb_scope.add(kind, rank, scope if kind != "barrier" else GLOBAL_SCOPE)
            hb_rel.add(kind, rank, scope if kind != "barrier" else GLOBAL_SCOPE)
        w_rank = data.draw(st.integers(0, 2))
        w_seq = data.draw(st.integers(0, n_events - 1))
        r_rank = data.draw(st.integers(0, 2))
        r_seq = data.draw(st.integers(0, n_events - 1))
        if hb_scope.guaranteed_visible(w_rank, w_seq, r_rank, r_seq):
            assert hb_rel.guaranteed_visible(w_rank, w_seq, r_rank, r_seq)


class TestContracts:
    def test_same_scope_native_on_scope_substrate(self, swdsm4):
        contract = ConsistencyContract("producer-consumer").require(1)
        model, report = contract.compile(swdsm4.dsm)
        assert report.fully_native
        assert not model.enforce_scopes

    def test_cross_scope_enforced_on_scope_substrate(self, swdsm4):
        contract = ConsistencyContract().require(1, reader_scope=2)
        model, report = contract.compile(swdsm4.dsm)
        assert not report.fully_native
        assert report.enforced == [Requirement(1, 2)]
        assert 1 in model.enforce_scopes

    def test_cross_scope_native_on_release_substrate(self, hybrid4):
        contract = ConsistencyContract().require(1, reader_scope=2)
        model, report = contract.compile(hybrid4.dsm)
        assert report.fully_native

    def test_cross_scope_native_on_smp(self, smp2):
        contract = ConsistencyContract().require(1, reader_scope=2)
        _, report = contract.compile(smp2.dsm)
        assert report.fully_native

    def test_compiled_model_delivers_cross_scope_visibility(self):
        """End to end: a cross-scope contract on the scope-consistent
        SW-DSM must actually make the data visible."""
        plat = preset("sw-dsm-2").build()
        contract = ConsistencyContract().require(1, reader_scope=2)
        model, report = contract.compile(plat.dsm)
        assert Requirement(1, 2) in report.enforced

        def main(env):
            A = yield from env.alloc_array_g((512,), name="A")
            yield from A.get_g(slice(None))  # cache everywhere
            yield from env.barrier_g()
            if env.rank == 0:
                yield from model.acquire_g(1)
                yield from A.set_g(0, 11.0)
                yield from model.release_g(1)  # contract: flushes globally
                yield from env.hamster.cluster_ctl.send_msg_g(1, "go")
                yield from env.barrier_g()
                return None
            yield from env.hamster.cluster_ctl.recv_msg_g()
            yield from model.acquire_g(2)      # different scope
            yield from A.refresh_g(0)
            value = float((yield from A.get_g(0)))
            yield from model.release_g(2)
            yield from env.barrier_g()
            return value

        assert spmd(plat, main)[1] == 11.0

    def test_chaining(self):
        contract = ConsistencyContract().require(1).require(2, 3).require(4)
        assert len(contract.requirements) == 3

    def test_verify_trace_flags_violation(self):
        """The formal check: a scope-consistent trace where lock 1's writes
        are read under lock 2 violates a cross-scope contract."""
        contract = ConsistencyContract().require(1, reader_scope=2)
        hb = HappensBefore("scope")
        hb.add("release", 0, 1)
        hb.add("acquire", 1, 2)
        violations = contract.verify_trace(hb)
        assert violations == [Requirement(1, 2)]

    def test_verify_trace_passes_with_barrier(self):
        contract = ConsistencyContract().require(1, reader_scope=2)
        hb = HappensBefore("scope")
        hb.add("release", 0, 1)
        hb.add("barrier", 0)
        hb.add("barrier", 1)
        hb.add("acquire", 1, 2)
        assert contract.verify_trace(hb) == []

    def test_verify_trace_passes_under_release_model(self):
        contract = ConsistencyContract().require(1, reader_scope=2)
        hb = HappensBefore("release")
        hb.add("release", 0, 1)
        hb.add("acquire", 1, 2)
        assert contract.verify_trace(hb) == []
