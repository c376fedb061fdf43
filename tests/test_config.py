"""Tests for cluster configuration: presets, parsing, validation, build."""

import pytest

from repro.config import ClusterConfig, PRESETS, load, loads, preset
from repro.errors import ConfigurationError


class TestValidation:
    def test_valid_combinations(self):
        ClusterConfig(platform="smp", dsm="smp", nodes=2)
        ClusterConfig(platform="beowulf", dsm="jiajia", nodes=4)
        ClusterConfig(platform="sci", dsm="scivm", nodes=4)
        ClusterConfig(platform="sci", dsm="jiajia", nodes=4)  # JiaJia over SCI ok

    def test_invalid_combinations(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(platform="beowulf", dsm="smp")
        with pytest.raises(ConfigurationError):
            ClusterConfig(platform="smp", dsm="jiajia")
        with pytest.raises(ConfigurationError):
            ClusterConfig(platform="beowulf", dsm="scivm")

    def test_unknown_names(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(platform="quantum")
        with pytest.raises(ConfigurationError):
            ClusterConfig(dsm="magic")

    def test_node_count(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(nodes=0)


class TestPresets:
    def test_all_presets_build(self):
        for name in PRESETS:
            plat = preset(name).build()
            assert plat.hamster is not None

    def test_preset_returns_copy(self):
        a = preset("sw-dsm-4")
        a.param_overrides["page_size"] = 1
        assert "page_size" not in PRESETS["sw-dsm-4"].param_overrides

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            preset("mystery-machine")

    def test_native_preset_differs(self):
        native = preset("native-jiajia-4")
        assert native.call_overhead == 0.0
        assert not native.integrated_messaging
        assert native.param_overrides["hamster_fault_hook"] == 0.0


class TestTextFormat:
    def test_loads_basic(self):
        cfg = loads("""
            [cluster]
            platform = sci
            nodes = 2
            [hamster]
            dsm = scivm
            messaging = separate
        """)
        assert cfg.platform == "sci" and cfg.dsm == "scivm"
        assert cfg.nodes == 2 and not cfg.integrated_messaging

    def test_loads_with_params(self):
        cfg = loads("""
            [cluster]
            platform = beowulf
            nodes = 4
            [hamster]
            dsm = jiajia
            [params]
            page_size = 8192
            coalesce_messaging = false
        """)
        assert cfg.param_overrides == {"page_size": 8192,
                                       "coalesce_messaging": False}
        assert cfg.params().page_size == 8192

    def test_loads_comments_and_blanks(self):
        cfg = loads("# header\n[cluster]\nplatform = smp  \n\n[hamster]\ndsm = smp\n")
        assert cfg.platform == "smp"

    def test_loads_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            loads("[cluster]\nthis is not a key value pair\n")
        with pytest.raises(ConfigurationError):
            loads("[params]\nnot_a_real_param = 3\n")
        with pytest.raises(ConfigurationError):
            loads("[hamster]\nmessaging = sometimes\n")

    def test_roundtrip(self):
        cfg = ClusterConfig(platform="sci", dsm="scivm", nodes=2,
                            integrated_messaging=False,
                            param_overrides={"page_size": 8192})
        back = loads(cfg.to_text())
        assert back.platform == cfg.platform
        assert back.dsm == cfg.dsm
        assert back.nodes == cfg.nodes
        assert back.integrated_messaging == cfg.integrated_messaging
        assert back.param_overrides == cfg.param_overrides

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cluster.cfg"
        path.write_text(preset("hybrid-2").to_text())
        cfg = load(str(path))
        assert cfg.dsm == "scivm" and cfg.nodes == 2


class TestBuild:
    def test_build_wires_everything(self):
        plat = preset("sw-dsm-4").build()
        assert plat.engine is plat.cluster.engine
        assert plat.dsm.cluster is plat.cluster
        assert plat.hamster.dsm is plat.dsm
        assert plat.fabric is not None

    def test_smp_build_has_no_fabric(self):
        plat = preset("smp-2").build()
        assert plat.fabric is None
        assert plat.cluster.network is None

    def test_ranks_override(self):
        plat = ClusterConfig(platform="smp", dsm="smp", nodes=4, ranks=3).build()
        assert plat.hamster.n_ranks == 3

    def test_trace_flag(self):
        cfg = preset("smp-2")
        cfg.trace = True
        plat = cfg.build()
        assert plat.engine.trace.enabled

    def test_param_overrides_reach_machine(self):
        cfg = preset("sw-dsm-2")
        cfg.param_overrides["eth_latency"] = 1e-3
        plat = cfg.build()
        assert plat.cluster.network.latency == 1e-3

    def test_identical_configs_identical_results(self):
        """§5.4 determinism: two builds of the same config produce the same
        virtual timeline for the same program."""
        from tests.conftest import spmd

        def run_once():
            plat = preset("sw-dsm-4").build()

            def main(env):
                A = env.hamster.memory.alloc_array_collective(
                    (64, 64), name="A")
                A[env.rank * 16:(env.rank + 1) * 16, :] = env.rank
                env.barrier()
                return env.wtime()

            return spmd(plat, main)

        assert run_once() == run_once()
