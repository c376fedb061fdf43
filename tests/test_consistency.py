"""Tests for the consistency API (§4.5): lattice, mapping rules, and the
optimized model implementations over each substrate."""

import pytest

from repro.config import preset
from repro.consistency import (MODELS, can_host, get_model, strength)
from repro.consistency.models import (ReleaseConsistency, ScopeConsistency,
                                      SequentialConsistency)
from repro.errors import ConsistencyError
from tests.conftest import spmd


class TestLattice:
    def test_strength_ordering(self):
        assert (strength("entry") < strength("scope") < strength("release")
                < strength("processor") < strength("sequential"))

    def test_weaker_on_stronger_always_hosted(self):
        """§4.5: a weaker software model always maps onto stronger hardware."""
        order = ["entry", "scope", "release", "processor", "sequential"]
        for i, sub in enumerate(order):
            for prog in order[:i + 1]:
                assert can_host(sub, prog)

    def test_stronger_on_weaker_not_hosted(self):
        assert not can_host("scope", "release")
        assert not can_host("release", "sequential")

    def test_unknown_model_rejected(self):
        with pytest.raises(ConsistencyError):
            strength("totally-bogus")
        with pytest.raises(ConsistencyError):
            get_model("nope", None)

    def test_registry_complete(self):
        assert set(MODELS) == {"sequential", "processor", "release",
                               "scope", "entry"}


class TestModelOverSubstrates:
    def test_free_ride_detection(self, smp2, swdsm4):
        # SMP hardware is processor-consistent: hosts scope/release free.
        assert ScopeConsistency(smp2.dsm).free_ride
        assert ReleaseConsistency(smp2.dsm).free_ride
        assert not SequentialConsistency(smp2.dsm).free_ride
        # JiaJia is scope-consistent: hosts scope free, release not.
        assert ScopeConsistency(swdsm4.dsm).free_ride
        assert not ReleaseConsistency(swdsm4.dsm).free_ride

    def test_release_model_on_scope_substrate_is_globally_visible(self):
        """RC promises: after release, the next acquirer of ANY lock sees
        the writes. The optimized RC implementation must close JiaJia's
        scope gap."""
        plat = preset("sw-dsm-2").build()

        def main(env):
            cons = env.hamster.consistency
            cons.use("release")
            A = env.alloc_array((512,), name="A")
            _ = A[:]  # cache everywhere
            env.barrier()
            if env.rank == 0:
                cons.acquire(1)
                A[0] = 7.0
                cons.release(1)
                env.hamster.cluster_ctl.send_msg(1, "go")
                env.barrier()
                return None
            env.hamster.cluster_ctl.recv_msg()
            cons.acquire(2)           # DIFFERENT lock
            A.refresh(0)              # RC: data must be home by now
            value = float(A[0])
            cons.release(2)
            env.barrier()
            return value

        assert spmd(plat, main)[1] == 7.0

    def test_sequential_model_flushes_at_both_ends(self, swdsm4):
        model = SequentialConsistency(swdsm4.dsm)
        assert model.name == "sequential"
        assert not model.free_ride


class TestConsistencyMgmt:
    def test_native_model_reported(self, smp2, swdsm4, hybrid4):
        def main(env):
            return env.hamster.dsm.consistency_model()

        assert spmd(smp2, main)[0] == "processor"
        assert spmd(swdsm4, main)[0] == "scope"
        assert spmd(hybrid4, main)[0] == "release"

    def test_can_host_service(self, smp2):
        def main(env):
            c = env.hamster.consistency
            return c.can_host("scope"), c.can_host("sequential")

        assert spmd(smp2, main)[0] == (True, False)

    def test_use_caches_models(self, smp2):
        def main(env):
            c = env.hamster.consistency
            m1 = c.use("release")
            m2 = c.use("release")
            return m1 is m2

        assert all(spmd(smp2, main))

    def test_fence_counts(self, smp2):
        def main(env):
            env.hamster.consistency.fence()
            env.hamster.consistency.fence()
            return env.hamster.consistency.stats.query("fences")

        assert spmd(smp2, main)[-1] == 4  # both ranks, shared counter

    def test_check_model(self, smp2):
        def main(env):
            with pytest.raises(ConsistencyError):
                env.hamster.consistency.check_model("bogus")
            return True

        assert all(spmd(smp2, main))
