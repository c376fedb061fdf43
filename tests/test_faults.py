"""Unit tests for the S17 fault-injection subsystem.

Covers the fault-plan data model, the injection layer's determinism, the
reliable-messaging sublayer (retry, timeout, dedup, node death), heartbeat
failure detection, and the zero-cost-when-disabled guarantee.
"""

from __future__ import annotations

import pytest

from repro.config import ClusterConfig, loads, preset
from repro.errors import ConfigurationError, NodeFailedError
from repro.errors import TimeoutError as ReproTimeoutError
from repro.faults import (FaultPlan, FaultyNetwork, LinkFaults, NodeCrash,
                          Partition)
from repro.machine.interconnect import Message
from repro.msg.active_messages import RetryPolicy
from tests.conftest import spmd


# --------------------------------------------------------------- fault plans
class TestFaultPlan:
    def test_defaults_are_inert(self):
        plan = FaultPlan()
        assert not plan.active
        assert not plan.link.active

    def test_seeded_profile_is_active(self):
        plan = FaultPlan.seeded(42)
        assert plan.active
        assert plan.seed == 42
        assert 0 < plan.link.drop_rate < 1

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            LinkFaults(drop_rate=1.5)
        with pytest.raises(ConfigurationError):
            LinkFaults(delay_min=2e-3, delay_max=1e-3)

    def test_partition_windows_and_groups(self):
        part = Partition(start=1.0, end=2.0, groups=((0, 1), (2,)))
        assert part.separates(0, 2, 1.5)
        assert not part.separates(0, 1, 1.5)      # same group
        assert not part.separates(0, 2, 2.5)      # window closed
        assert part.separates(0, 3, 1.5)          # 3 is in the implicit group
        with pytest.raises(ConfigurationError):
            Partition(start=1.0, end=2.0, groups=((0, 1), (1, 2)))
        with pytest.raises(ConfigurationError):
            Partition(start=2.0, end=1.0, groups=((0,), (1,)))

    def test_crash_windows(self):
        crash = NodeCrash(node=1, at=1.0, restart=2.0)
        assert not crash.down(0.5)
        assert crash.down(1.0) and crash.down(1.9)
        assert not crash.down(2.0)
        assert NodeCrash(node=0, at=0.0).down(1e9)  # no restart: down forever
        with pytest.raises(ConfigurationError):
            NodeCrash(node=0, at=2.0, restart=1.0)

    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=7, link=LinkFaults(drop_rate=0.2, dup_rate=0.05),
            partitions=(Partition(start=1e-3, end=2e-3, groups=((0,), (1,))),),
            crashes=(NodeCrash(node=1, at=5e-3, restart=None),),
            heartbeat=False)
        assert FaultPlan.loads(plan.dumps()) == plan

    def test_coerce(self):
        plan = FaultPlan.seeded(3)
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(3) == FaultPlan.seeded(3)
        assert FaultPlan.coerce({"seed": 9}).seed == 9
        with pytest.raises(ConfigurationError):
            FaultPlan.coerce(True)
        with pytest.raises(ConfigurationError):
            FaultPlan.coerce({"seed": 1, "bogus": 2})


# ------------------------------------------------------------ per-network ids
class TestMessageIds:
    def test_ids_start_at_one_per_network(self):
        plat_a = preset("sw-dsm-2").build()
        plat_b = preset("sw-dsm-2").build()
        for plat in (plat_a, plat_b):
            msg = Message(src=0, dst=1, kind="x", size=8)
            plat.cluster.network.assign_id(msg)
            assert msg.msg_id == 1  # independent of any other Network

    def test_assign_id_is_idempotent(self):
        plat = preset("sw-dsm-2").build()
        msg = Message(src=0, dst=1, kind="x", size=8)
        plat.cluster.network.assign_id(msg)
        first = msg.msg_id
        plat.cluster.network.assign_id(msg)
        assert msg.msg_id == first


# -------------------------------------------------------------- injection
def _exchange(env):
    """Minimal all-to-all shared-memory workload."""
    arr = env.alloc_array((env.n_ranks,), dtype=float, name="x")
    arr[env.rank] = float(env.rank + 1)
    env.barrier()
    total = float(sum(arr[r] for r in range(env.n_ranks)))
    env.barrier()
    return total


class TestFaultyNetwork:
    def test_single_injector_per_network(self):
        plat = preset("sw-dsm-2").build()
        FaultyNetwork(plat.cluster.network, FaultPlan.seeded(1))
        with pytest.raises(ConfigurationError):
            FaultyNetwork(plat.cluster.network, FaultPlan.seeded(2))

    def test_same_seed_same_faults(self):
        def faults_of(seed):
            cfg = preset("sw-dsm-2")
            cfg.faults = FaultPlan.seeded(seed, heartbeat=False)
            plat = cfg.build()
            spmd(plat, _exchange)
            return plat.faults.stats(), plat.engine.now

        s1, t1 = faults_of(11)
        s2, t2 = faults_of(11)
        s3, _ = faults_of(12)
        assert (s1, t1) == (s2, t2)
        assert s1 != s3  # different seed classifies differently

    def test_node_down_drops_both_directions(self):
        cfg = preset("sw-dsm-2")
        cfg.faults = FaultPlan(crashes=(NodeCrash(node=1, at=0.0),),
                               heartbeat=False)
        plat = cfg.build()
        net = plat.cluster.network
        for src, dst in ((0, 1), (1, 0)):
            before = plat.faults.dropped_node_down
            net.send(Message(src=src, dst=dst, kind="t", size=8))
            assert plat.faults.dropped_node_down == before + 1


# -------------------------------------------------------- reliable messaging
class TestReliableMessaging:
    def test_off_by_default_and_zero_state(self):
        plat = preset("sw-dsm-2").build()
        layer = plat.fabric.layer
        assert not layer.reliable
        spmd(plat, _exchange)
        assert layer.acks_sent == 0 and layer.retries == 0

    def test_retries_mask_loss(self):
        cfg = preset("sw-dsm-2")
        cfg.faults = FaultPlan.seeded(42, heartbeat=False)
        plat = cfg.build()
        results = spmd(plat, _exchange)
        assert results == [3.0, 3.0]
        layer = plat.fabric.layer
        assert plat.faults.dropped > 0          # faults actually fired
        assert layer.retries >= plat.faults.dropped - layer.delivery_failures
        assert layer.delivery_failures == 0

    def test_duplicates_are_suppressed(self):
        cfg = preset("sw-dsm-2")
        cfg.faults = FaultPlan(seed=5, link=LinkFaults(dup_rate=0.5),
                               heartbeat=False)
        plat = cfg.build()
        assert spmd(plat, _exchange) == [3.0, 3.0]
        assert plat.faults.duplicated > 0
        # Some wire duplicates are ack frames (harmless, not deduped), so
        # only the handler-bearing ones must show up as suppressed.
        assert plat.fabric.layer.dups_suppressed > 0

    def test_total_loss_raises_timeout(self):
        cfg = preset("sw-dsm-2")
        cfg.faults = FaultPlan(seed=1, link=LinkFaults(drop_rate=1.0),
                               heartbeat=False)
        plat = cfg.build()
        policy = RetryPolicy(timeout=100e-6, max_retries=2)
        plat.fabric.layer._reliable = policy
        with pytest.raises(ReproTimeoutError):
            spmd(plat, _exchange)
        assert plat.fabric.layer.delivery_failures >= 1
        # the failure surfaced within the policy's bounded span
        assert plat.engine.now < 1.0

    def test_mark_node_failed_fails_pending_and_new_traffic(self):
        plat = preset("sw-dsm-2").build()
        layer = plat.fabric.layer
        layer.enable_reliability()

        def rank0(env):
            if env.rank != 0:
                return None
            layer.mark_node_failed(1)
            with pytest.raises(NodeFailedError):
                yield from layer.rpc_g(0, 1, "cc.reg.get", payload="k",
                                       size=8)
            return "refused"

        out = spmd(plat, rank0)
        assert out[0] == "refused"
        assert layer.failed_nodes() == {1}

    def test_retry_policy_span(self):
        p = RetryPolicy(timeout=1e-3, max_retries=2, backoff=2.0)
        assert p.span() == pytest.approx(1e-3 + 2e-3 + 4e-3)


# ---------------------------------------------------------- failure detection
class TestFailureDetection:
    def test_crash_is_confirmed_and_typed(self):
        cfg = preset("sw-dsm-2")
        crash_at = 1e-3  # mid-run: the plain workload takes ~2.7 ms
        cfg.faults = FaultPlan(seed=3, crashes=(NodeCrash(node=1, at=crash_at),))
        plat = cfg.build()
        with pytest.raises(NodeFailedError) as info:
            spmd(plat, _exchange)
        detector = plat.hamster.cluster_ctl.detector
        assert info.value.node_id == 1
        assert detector.confirmed() == [1]
        # detection within the bounded confirm window after the crash
        interval = detector.interval
        assert info.value.detected_at <= crash_at + (detector.confirm_after + 2) * interval

    def test_healthy_cluster_stays_clean(self):
        cfg = preset("sw-dsm-2")
        cfg.faults = FaultPlan.seeded(8)  # loss, but no crash
        plat = cfg.build()
        spmd(plat, _exchange)
        cc = plat.hamster.cluster_ctl
        assert cc.failed_nodes() == []
        assert cc.node_alive(0) and cc.node_alive(1)
        assert cc.stats.query("heartbeats_sent") > 0

    def test_liveness_queries_without_detector(self):
        plat = preset("sw-dsm-2").build()
        cc = plat.hamster.cluster_ctl
        assert cc.detector is None
        assert cc.node_alive(1)
        assert cc.suspected_nodes() == [] and cc.failed_nodes() == []
        with pytest.raises(ConfigurationError):
            cc.node_alive(99)

    def test_detector_rejects_smp(self):
        with pytest.raises(ConfigurationError):
            preset("smp-2").build().hamster.cluster_ctl.start_failure_detection()


# ------------------------------------------------------------- configuration
class TestConfigWiring:
    def test_smp_platform_rejects_faults(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(platform="smp", dsm="smp", nodes=2, faults=1)

    def test_faults_field_coerces_seed(self):
        cfg = preset("sw-dsm-2")
        cfg.faults = 42
        plat = cfg.build()
        assert plat.faults is not None
        assert plat.faults.plan == FaultPlan.seeded(42)
        assert plat.fabric.layer.reliable

    def test_config_text_round_trip(self):
        cfg = preset("sw-dsm-2")
        cfg.faults = FaultPlan(seed=5, link=LinkFaults(drop_rate=0.1),
                               crashes=(NodeCrash(node=1, at=1e-3),),
                               heartbeat=False)
        parsed = loads(cfg.to_text())
        assert parsed.faults == cfg.faults

    def test_flat_faults_section(self):
        cfg = loads("[cluster]\nplatform = beowulf\nnodes = 2\n"
                    "[faults]\nseed = 9\ndrop_rate = 0.05\nheartbeat = off\n")
        plan = cfg.faults
        assert plan.seed == 9
        assert plan.link.drop_rate == pytest.approx(0.05)
        assert plan.heartbeat is False
