"""Unit tests for the machine layer: params, nodes, buses, clusters."""

import dataclasses
import re

import numpy as np
import pytest

from repro.cli import main
from repro.config import PRESETS, loads
from repro.errors import ConfigurationError
from repro.fabric import Scenario, scenario_key
from repro.machine.cluster import Cluster
from repro.machine.node import Node
from repro.machine.params import MachineParams, PAPER_PLATFORM
from repro.machine.smpbus import MemoryBus
from tests.conftest import run_procs


class TestParams:
    def test_defaults_match_paper_platform(self):
        p = PAPER_PLATFORM
        assert p.cpu_hz == 450e6
        assert p.page_size == 4096
        assert p.cpus_per_node == 2

    def test_with_overrides_is_pure(self):
        p2 = PAPER_PLATFORM.with_overrides(page_size=8192)
        assert p2.page_size == 8192
        assert PAPER_PLATFORM.page_size == 4096

    def test_msg_overhead_selection(self):
        p = MachineParams(coalesce_messaging=True)
        assert p.msg_stack_overhead() == p.msg_stack_overhead_integrated
        p = MachineParams(coalesce_messaging=False)
        assert p.msg_stack_overhead() == p.msg_stack_overhead_separate

    def test_integrated_cheaper_than_separate(self):
        p = PAPER_PLATFORM
        assert p.msg_stack_overhead_integrated < p.msg_stack_overhead_separate

    def test_sci_faster_than_ethernet(self):
        p = PAPER_PLATFORM
        assert p.sci_read_latency < p.eth_latency
        assert p.sci_write_latency < p.sci_read_latency  # posted writes


BAD_VALUES = [float("nan"), float("inf"), float("-inf"), -1e-6, -1, "1e-6",
              None, True, np.float64(1e-6)]


class TestParamValidation:
    """A NaN or infinite cost used to run to ``total: nan ms`` and still
    verify; a negative one shortened times; a NumPy scalar reaches the
    clock. Each is a ConfigurationError naming the field and the value."""

    @pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
    def test_rejected_at_construction(self, value):
        with pytest.raises(ConfigurationError,
                           match=f"mem_latency .* got {re.escape(repr(value))}"):
            MachineParams(mem_latency=value)
        with pytest.raises(ConfigurationError, match="page_size"):
            PAPER_PLATFORM.with_overrides(page_size=value)

    def test_zero_and_every_default_accepted(self):
        assert MachineParams(mem_latency=0, sci_torus_width=0).mem_latency == 0
        assert MachineParams(eth_latency=-0.0).eth_latency == 0

    def test_flag_must_be_a_bool(self):
        with pytest.raises(ConfigurationError, match="coalesce_messaging"):
            MachineParams(coalesce_messaging="false")

    @pytest.mark.parametrize("text", ["nan", "inf", "-1e-6"])
    def test_config_file_value_rejected(self, text):
        cfg = loads(f"[params]\nmem_latency = {text}\n")
        with pytest.raises(ConfigurationError, match="mem_latency"):
            cfg.build()

    def test_cli_run_refuses_the_config(self, tmp_path):
        path = tmp_path / "nan.ini"
        path.write_text("[params]\nmem_latency = nan\n")
        with pytest.raises(ConfigurationError, match="mem_latency"):
            main(["run", "--config", str(path), "--app", "pi",
                  "--param", "intervals=4096"])

    def test_param_overrides_and_grid_overrides_rejected(self):
        bad = dataclasses.replace(
            PRESETS["sw-dsm-2"], param_overrides={"eth_latency": float("nan")})
        with pytest.raises(ConfigurationError, match="eth_latency"):
            bad.params()
        cell = Scenario(preset="sw-dsm-2", label="PI", scale=0.05,
                        overrides=(("eth_latency", -70e-6),))
        with pytest.raises(ConfigurationError, match="eth_latency"):
            scenario_key(cell)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_still_builds(self, name):
        assert PRESETS[name].build().cluster.params is PRESETS[name].params()


class TestNode:
    def test_compute_charges_flop_time(self, engine):
        node = Node(engine, 0, PAPER_PLATFORM)

        def body(proc):
            node.compute(PAPER_PLATFORM.flops_per_second)  # exactly 1 second
            return proc.now

        assert run_procs(engine, body) == [pytest.approx(1.0)]

    def test_zero_charges_are_free(self, engine):
        node = Node(engine, 0, PAPER_PLATFORM)

        def body(proc):
            node.compute(0)
            node.cpu_time(0)
            node.mem_touch(0)
            return proc.now

        assert run_procs(engine, body) == [0.0]

    def test_compute_time_accounting(self, engine):
        node = Node(engine, 0, PAPER_PLATFORM)

        def body(proc):
            node.cpu_time(0.25)

        run_procs(engine, body)
        assert node.compute_time == pytest.approx(0.25)


class TestMemoryBus:
    def test_single_transfer_cost(self, engine):
        p = PAPER_PLATFORM
        bus = MemoryBus(engine, p)
        nbytes = int(p.mem_bandwidth)  # one second of traffic

        def body(proc):
            bus.touch(nbytes)
            return proc.now

        t = run_procs(engine, body)[0]
        assert t == pytest.approx(1.0 + p.mem_latency)

    def test_contention_serializes(self, engine):
        p = PAPER_PLATFORM
        bus = MemoryBus(engine, p)
        nbytes = int(p.mem_bandwidth * 0.5)  # half-second each

        def body(proc):
            bus.touch(nbytes)
            return proc.now

        t1, t2 = run_procs(engine, body, body)
        # Second transfer queues behind the first: finishes ~1s, not ~0.5s.
        assert min(t1, t2) == pytest.approx(0.5 + p.mem_latency)
        assert max(t1, t2) == pytest.approx(1.0 + 2 * p.mem_latency)
        assert bus.contention_time > 0

    def test_stats_and_reset(self, engine):
        bus = MemoryBus(engine, PAPER_PLATFORM)

        def body(proc):
            bus.touch(1000)

        run_procs(engine, body)
        assert bus.bytes_transferred == 1000
        bus.reset_stats()
        assert bus.bytes_transferred == 0


class TestCluster:
    def test_smp_factory(self, engine):
        cl = Cluster.smp(engine, n_cpus=2)
        assert cl.n_nodes == 1
        assert cl.node(0).n_cpus == 2
        assert cl.network is None
        assert not cl.has_sci()

    def test_beowulf_factory(self, engine):
        cl = Cluster.beowulf(engine, 4)
        assert cl.n_nodes == 4
        assert cl.network is not None
        with pytest.raises(ConfigurationError):
            cl.sci  # noqa: B018 - property raises

    def test_sci_factory(self, engine):
        cl = Cluster.sci_cluster(engine, 4)
        assert cl.has_sci()
        assert cl.sci is cl.network

    def test_bad_node_lookup(self, engine):
        cl = Cluster.beowulf(engine, 2)
        with pytest.raises(ConfigurationError):
            cl.node(5)

    def test_invalid_sizes(self, engine):
        with pytest.raises(ConfigurationError):
            Cluster.smp(engine, n_cpus=0)
        with pytest.raises(ConfigurationError):
            Cluster.beowulf(engine, 0)

    def test_each_cluster_node_has_own_bus(self, engine):
        cl = Cluster.beowulf(engine, 3)
        buses = {id(cl.node(i).bus) for i in range(3)}
        assert len(buses) == 3
