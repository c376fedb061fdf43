"""Tests for multi-DSM composition (the §6 future-work extension)."""

import numpy as np
import pytest

from repro.config import ClusterConfig, preset
from repro.dsm.composite import CompositeMemorySystem
from repro.dsm.jiajia import JiaJiaSystem
from repro.dsm.scivm import SciVmSystem
from repro.errors import ConfigurationError, MemoryError_
from repro.machine.cluster import Cluster
from repro.memory.layout import block, single_home
from repro.msg.coalesce import MessagingFabric
from repro.sim.engine import Engine
from tests.conftest import spmd


def system_of(dsm, region):
    """The name of the child system that holds ``region``."""
    owner = dsm._owner(region)
    return next(key for key, child in dsm.children.items() if child is owner)


def build_composite(nodes=2):
    cfg = ClusterConfig(platform="sci", dsm="composite", nodes=nodes,
                        name=f"composite-{nodes}")
    return cfg.build()


class TestConstruction:
    def test_config_builds_composite(self):
        plat = build_composite()
        assert isinstance(plat.dsm, CompositeMemorySystem)
        assert set(plat.dsm.children) == {"jiajia", "scivm"}
        assert plat.dsm.primary_key == "jiajia"

    def test_composite_needs_sci_platform(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(platform="beowulf", dsm="composite")

    def test_children_share_address_space(self):
        plat = build_composite()
        for child in plat.dsm.children.values():
            assert child.space is plat.dsm.space
            assert child.allocator is plat.dsm.allocator

    def test_unknown_primary_rejected(self):
        engine = Engine()
        cluster = Cluster.sci_cluster(engine, 2)
        fabric = MessagingFabric(cluster)
        children = {"jiajia": JiaJiaSystem(cluster, fabric=fabric)}
        with pytest.raises(ConfigurationError):
            CompositeMemorySystem(cluster, children, primary="nope")

    def test_prepopulated_child_rejected(self):
        engine = Engine()
        cluster = Cluster.sci_cluster(engine, 2)
        fabric = MessagingFabric(cluster)
        child = JiaJiaSystem(cluster, fabric=fabric)
        child.allocate(4096)
        with pytest.raises(ConfigurationError):
            CompositeMemorySystem(cluster, {"jiajia": child}, primary="jiajia")


class TestRouting:
    def test_regions_route_to_chosen_system(self):
        plat = build_composite()
        dsm = plat.dsm

        def main(env):
            if env.rank == 0:
                a = dsm.make_array_on("jiajia", (64,), name="cached")
                b = dsm.make_array_on("scivm", (64,), name="streamed")
                return system_of(dsm, a.region), system_of(dsm, b.region)
            return None

        assert spmd(plat, main)[0] == ("jiajia", "scivm")

    def test_default_policy_uses_primary(self):
        plat = build_composite()
        dsm = plat.dsm

        def main(env):
            if env.rank == 0:
                region = dsm.allocate(4096, name="default")
                return system_of(dsm, region)
            return None

        assert spmd(plat, main)[0] == "jiajia"

    def test_custom_policy(self):
        plat = build_composite()
        dsm = plat.dsm
        dsm.default_policy = lambda nbytes, name: (
            "scivm" if nbytes > 16384 else "jiajia")

        def main(env):
            if env.rank == 0:
                small = dsm.allocate(4096, name="s")
                large = dsm.allocate(65536, name="l")
                return system_of(dsm, small), system_of(dsm, large)
            return None

        assert spmd(plat, main)[0] == ("jiajia", "scivm")

    def test_foreign_region_rejected(self):
        plat = build_composite()
        dsm = plat.dsm
        from repro.memory.address_space import Region

        fake = Region(999, 0x4000_0000, 4096, 4096)
        with pytest.raises(MemoryError_):
            dsm._owner(fake)

    def test_free_routes_to_owner(self):
        plat = build_composite()
        dsm = plat.dsm

        def main(env):
            if env.rank == 0:
                region = dsm.allocate_on("scivm", 4096, name="tmp")
                dsm.free(region)
                return dsm.allocator.n_frees
            return None

        assert spmd(plat, main)[0] == 1


class TestSemantics:
    def test_data_correct_across_both_systems(self):
        plat = build_composite()
        dsm = plat.dsm
        arrays = {}

        def main(env):
            if env.rank == 0:
                arrays["a"] = dsm.make_array_on("jiajia", (32,), name="A",
                                                distribution=single_home(0))
                arrays["b"] = dsm.make_array_on("scivm", (32,), name="B",
                                                distribution=single_home(1))
            env.barrier()
            A, B = arrays["a"], arrays["b"]
            if env.rank == 0:
                A[:] = 1.0
                B[0:16] = 2.0
            else:
                B[16:32] = 3.0
            env.barrier()
            return float(A[:].sum()), float(B[:].sum())

        for a_sum, b_sum in spmd(plat, main):
            assert a_sum == 32.0
            assert b_sum == 16 * 2.0 + 16 * 3.0

    def test_unlock_flushes_secondary_writes(self):
        """Release consistency must span systems: writes to a scivm region
        inside a jiajia-locked critical section are visible to the next
        lock holder."""
        plat = build_composite()
        dsm = plat.dsm
        arrays = {}

        def main(env):
            if env.rank == 0:
                arrays["b"] = dsm.make_array_on("scivm", (8,), name="B")
            env.barrier()
            B = arrays["b"]
            for _ in range(2):
                env.lock(1)
                B[0] = float(B[0]) + 1.0
                env.unlock(1)
            env.barrier()
            return float(B[0])

        assert spmd(plat, main) == [4.0, 4.0]

    def test_stats_merge_children(self):
        plat = build_composite()
        dsm = plat.dsm
        arrays = {}

        def main(env):
            if env.rank == 0:
                arrays["a"] = dsm.make_array_on("jiajia", (512,), name="A",
                                                distribution=single_home(0))
                arrays["b"] = dsm.make_array_on("scivm", (512,), name="B",
                                                distribution=single_home(0))
            env.barrier()
            if env.rank == 1:
                _ = arrays["a"][:]      # jiajia fetch
                arrays["b"][0] = 1.0    # scivm remote write
            env.barrier()
            return dsm.stats(env.rank)

        stats = spmd(plat, main)[1]
        assert stats["child:jiajia"]["pages_fetched"] >= 1
        assert stats["child:scivm"]["remote_writes"] >= 1
        assert stats["pages_fetched"] >= 1  # merged view
        assert stats["remote_writes"] >= 1

    def test_capabilities_union(self):
        plat = build_composite()
        caps = plat.dsm.capabilities()
        assert "composite" in caps
        assert "software_dsm" in caps      # from jiajia
        assert "hybrid_dsm" in caps        # from scivm
        assert "primary:jiajia" in caps

    def test_home_of_routes(self):
        plat = build_composite()
        dsm = plat.dsm

        def main(env):
            if env.rank == 0:
                arr = dsm.make_array_on("scivm", (512,), name="B",
                                        distribution=single_home(1))
                return dsm.home_of(arr.region.first_page)
            return None

        assert spmd(plat, main)[0] == 1
