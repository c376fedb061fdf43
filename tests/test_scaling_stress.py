"""1024-node scale tests for the continuation scheduler and scaling suite.

One OS thread per simulated process caps clusters at a few hundred nodes
(8 MB default stacks, scheduler thrash, thread-creation failures). The
generator backend holds a whole 1024-process cluster as plain Python
frames, so these tests can assert what the thread era could not:

* a 1024-process ring + barrier workload completes, with peak traced
  allocation per process orders of magnitude below a thread stack;
* a deadlock at that scale still produces a report naming the blocked
  process set exactly;
* the 1024-node machine presets build and run a full DSM benchmark;
* a communication-heavy benchmark (SOR: halo exchange and two barriers per
  iteration) verifies on 256 ranks, every rank against one shared reference.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.errors import DeadlockError
from repro.sim.engine import Engine
from repro.sim.process import SimProcess
from repro.sim.resources import SimBarrier, SimQueue

N = 1024


def _ring_worker(proc, rank, queues, barrier, laps, done):
    # Pass the token around the ring `laps` times, then rendezvous.
    if rank == 0:
        queues[0].put(("token", 0))
    passes = 0
    while passes < laps:
        token, hops = yield from queues[rank].get_g()
        assert token == "token"
        yield 1e-6  # per-hop service time
        passes += 1
        if passes < laps or rank != N - 1:
            queues[(rank + 1) % N].put((token, hops + 1))
    yield from barrier.wait_g()
    done.append(rank)


class TestThousandNodeRing:
    def test_ring_and_barrier_complete_with_bounded_memory(self):
        engine = Engine(procs="generator")
        queues = [SimQueue(engine, name=f"q{i}") for i in range(N)]
        barrier = SimBarrier(engine, N, name="finish")
        done = []
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for rank in range(N):
                SimProcess(engine, _ring_worker,
                           args=(rank, queues, barrier, 2, done),
                           name=f"ring{rank}").start()
            engine.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(done) == list(range(N))
        # Every rank took the token twice: 2*N hops of 1e-6s, serialized.
        assert engine.now == pytest.approx(2 * N * 1e-6)
        per_proc = (peak - before) / N
        # A suspended continuation is a few KB of frames; a thread stack
        # is 8 MB virtual / tens of KB resident. Budget 64 KB per process
        # (loose enough for queue + trace bookkeeping, ~100x under threads).
        assert per_proc < 64 * 1024, f"{per_proc / 1024:.1f} KB per process"

    def test_deadlock_report_names_all_blocked_at_scale(self):
        engine = Engine(procs="generator")
        # One party short: every arrival parks forever.
        barrier = SimBarrier(engine, N + 1, name="short")

        def body(proc):
            yield from barrier.wait_g()

        procs = [SimProcess(engine, body, name=f"p{i}").start()
                 for i in range(N)]
        with pytest.raises(DeadlockError) as exc:
            engine.run()
        assert set(exc.value.blocked) == set(procs)
        assert f"p{N - 1}#" in str(exc.value)


class TestThousandNodePresets:
    @pytest.mark.parametrize("name,width", [("eth-1024", 0),
                                            ("sci-torus-1024", 32)])
    def test_presets_build(self, name, width):
        from repro.config import preset

        plat = preset(name).build()
        assert plat.cluster.n_nodes == 1024
        assert plat.cluster.params.sci_torus_width == width

    def test_full_dsm_benchmark_on_1024_ranks(self):
        """End to end at scale: the PI benchmark (locks + barriers through
        the whole DSM stack) on the 1024-node Ethernet preset."""
        import functools

        from repro.apps import get_app
        from repro.apps.common import merge_rank_results
        from repro.config import preset
        from repro.models.jiajia_api import JiaJiaApi

        plat = preset("eth-1024").build()
        api = JiaJiaApi(plat.hamster)
        merged = merge_rank_results(
            api.run(functools.partial(get_app("pi"), intervals=1 << 14)))
        assert merged.verified
        assert plat.engine.now > 0


class TestCommunicationHeavyRung:
    def test_sor_on_256_ranks_verifies_against_one_reference(self, monkeypatch):
        """The first rung beyond PI on the ladder: 270 interior rows over
        256 ranks (one or two rows each), every rank exchanging halo rows
        with its neighbours through the SW-DSM. Affordable because the
        run computes its input and its sequential reference once, not 256
        times."""
        import repro.apps.sor as sor
        from repro.bench.runners import run_app_detailed
        from repro.config import preset

        references = []
        real_reference = sor._reference

        def counted(initial, iterations):
            references.append(iterations)
            return real_reference(initial, iterations)

        monkeypatch.setattr(sor, "_reference", counted)
        merged, plat = run_app_detailed(preset("eth-256"), "sor", n=272,
                                        iterations=2)
        assert plat.hamster.n_ranks == 256
        assert merged.verified
        assert references == [2]
        # init + two half-sweeps per iteration + jia_exit, on every rank
        assert plat.hamster.dsm.stats(255)["barriers"] >= 1 + 2 * 2 + 1
