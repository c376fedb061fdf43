"""Benchmark-application tests: correctness on every platform, phase
instrumentation, and run-to-run determinism."""

import functools
import threading

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import repro.apps.common
import repro.apps.fft
import repro.apps.lu
import repro.apps.matmult
import repro.apps.sor
import repro.apps.water
import repro.dsm.jiajia.protocol
from repro.apps import get_app
from repro.apps.common import (APP_TABLE, AppError, AppResult,
                               merge_rank_results, once_per_run, row_block)
from repro.bench.runners import run_app_detailed, run_app_on
from repro.config import ClusterConfig, preset
from repro.models.jiajia_api import JiaJiaApi
from repro.models.native_jiajia import NativeJiaJiaApi

PLATFORMS = ["smp-2", "sw-dsm-4", "hybrid-4", "sw-dsm-2", "hybrid-2"]

SMALL = {
    "matmult": dict(n=64),
    "pi": dict(intervals=1 << 12),
    "sor": dict(n=64, iterations=3),
    "lu": dict(n=64, block=16),
    "water": dict(molecules=24, steps=2),
}


class TestRowBlock:
    def test_even_partition(self):
        assert [row_block(8, r, 4) for r in range(4)] == [
            (0, 2), (2, 4), (4, 6), (6, 8)]

    def test_uneven_partition_covers_all_rows(self):
        blocks = [row_block(10, r, 4) for r in range(4)]
        assert blocks[0] == (0, 3)
        assert blocks[-1][1] == 10
        covered = [i for lo, hi in blocks for i in range(lo, hi)]
        assert covered == list(range(10))


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("app", sorted(SMALL))
class TestAppsVerifyEverywhere:
    def test_app_verifies(self, platform, app):
        result = run_app_on(preset(platform), app, **SMALL[app])
        assert result.verified
        assert result.phases["total"] > 0


class TestAppBehaviour:
    def test_lu_phase_split_consistent(self):
        result = run_app_on(preset("sw-dsm-2"), "lu", **SMALL["lu"])
        ph = result.phases
        assert set(ph) >= {"all", "no_init", "core", "barrier", "init"}
        # Merged phases are per-phase maxima across ranks, so additivity
        # holds only as a bound: all <= init + no_init, all >= each part.
        assert ph["all"] <= ph["init"] + ph["no_init"] + 1e-12
        assert ph["all"] >= max(ph["init"], ph["no_init"])
        assert ph["core"] <= ph["no_init"]
        assert ph["barrier"] <= ph["no_init"]

    def test_sor_locality_helps_on_swdsm(self):
        opt = run_app_on(preset("sw-dsm-4"), "sor", n=128, iterations=4,
                         locality=True)
        unopt = run_app_on(preset("sw-dsm-4"), "sor", n=128, iterations=4,
                           locality=False)
        assert opt.phases["total"] < unopt.phases["total"]

    def test_pi_converges(self):
        import math

        result = run_app_on(preset("hybrid-4"), "pi", intervals=1 << 14)
        assert abs(result.checksum - math.pi) < 1e-4

    @pytest.mark.parametrize("intervals", range(1, 9))
    def test_pi_verifies_at_few_intervals(self, intervals):
        # The midpoint rule's own error (0.026 at 1 interval) is no fault
        # of the run: PI is judged against the rule's bound.
        assert run_app_on(preset("sw-dsm-4"), "pi", intervals=intervals).verified

    @pytest.mark.parametrize("n_ranks", [2, 4, 1024])
    def test_pi_bound_separates_a_right_sum_from_a_lost_share(self, n_ranks):
        import math

        from repro.apps.pi import _partial_sum, error_bound

        for intervals in (1, 4, 1024, 4096, 1 << 14):
            shares = [_partial_sum(r, n_ranks, intervals)[0]
                      for r in range(n_ranks)]
            bound = error_bound(intervals, n_ranks)
            assert abs(sum(shares) - math.pi) <= 0.25 * bound * (1 + 1e-6)
            lost = min(abs(sum(shares) - s - math.pi) for s in shares if s)
            assert lost > (1e5 if intervals >= 4096 else 9) * bound

    @pytest.mark.parametrize("intervals", [4, 1024])
    def test_pi_fails_when_a_partial_sum_is_lost(self, monkeypatch, intervals):
        import repro.apps.pi as pi_mod

        original = pi_mod._partial_sum

        def losing(rank, n_ranks, intervals):
            local, count = original(rank, n_ranks, intervals)
            return (0.0 if rank == 0 else local), count

        monkeypatch.setattr(pi_mod, "_partial_sum", losing)
        with pytest.raises(AppError, match="verification"):
            run_app_on(preset("sw-dsm-4"), "pi", intervals=intervals)

    def test_water_sizes(self):
        for molecules in (24, 33):
            result = run_app_on(preset("hybrid-2"), "water",
                                molecules=molecules, steps=1)
            assert result.verified
            assert result.extra["molecules"] == molecules

    def test_matmult_init_and_compute_phases(self):
        result = run_app_on(preset("hybrid-2"), "matmult", n=64)
        assert result.phases["init"] > 0
        assert result.phases["compute"] > 0

    def test_determinism_across_runs(self):
        a = run_app_on(preset("sw-dsm-4"), "sor", n=64, iterations=2)
        b = run_app_on(preset("sw-dsm-4"), "sor", n=64, iterations=2)
        assert a.phases == b.phases
        assert a.checksum == b.checksum

    def test_verification_failure_raises(self, monkeypatch):
        """If a protocol bug corrupted results, the harness must notice."""
        import repro.apps.pi as pi_mod

        original = pi_mod.run_pi

        def sabotaged(api, **kw):
            # run_pi is a generator-function app body: drive it to completion
            # (the wrapper is itself a generator so it stays stackless).
            result = yield from original(api, **kw)
            return AppResult(app=result.app, rank=result.rank,
                             phases=result.phases, verified=False)

        monkeypatch.setattr(pi_mod, "run_pi", sabotaged)
        with pytest.raises(AppError, match="verification"):
            run_app_on(preset("hybrid-2"), "pi", intervals=1024)


def sweep_by_rows(grid, phase, lo, hi, n):
    """The per-row red-black half-sweep ``sor._sweep`` was before it became
    two strided assignments; kept as its oracle."""
    omega = repro.apps.sor.OMEGA
    for i in range(lo, hi):
        j0 = 1 + ((i + phase) % 2)
        row = grid[i - lo + 1]
        up = grid[i - lo]
        down = grid[i - lo + 2]
        js = np.arange(j0, n - 1, 2)
        row[js] = (1 - omega) * row[js] + omega * 0.25 * (
            up[js] + down[js] + row[js - 1] + row[js + 1])


@st.composite
def sweep_cases(draw):
    n = draw(st.integers(3, 23))                  # odd and even widths
    whole = draw(st.booleans())                   # the reference's call
    lo = 1 if whole else draw(st.integers(1, n - 2))
    hi = n - 1 if whole else draw(st.integers(lo, n - 1))  # lo == hi: no rows
    return n, lo, hi, draw(st.integers(0, 1)), draw(st.integers(0, 2**32 - 1))


class TestSorSweep:
    @given(sweep_cases())
    def test_strided_sweep_is_bit_identical_to_the_row_loop(self, case):
        n, lo, hi, phase, seed = case
        # own rows plus one halo row above and below, as run_sor fetches them
        local = np.random.default_rng(seed).random((hi - lo + 2, n))
        expected = local.copy()
        sweep_by_rows(expected, phase, lo, hi, n)
        repro.apps.sor._sweep(local, phase, lo, hi, n)
        assert np.array_equal(local, expected)

    def test_single_rows_of_either_colour(self):
        for lo in (1, 2):
            for phase in (0, 1):
                before = np.random.default_rng(lo + phase).random((3, 9))
                local, expected = before.copy(), before.copy()
                sweep_by_rows(expected, phase, lo, lo + 1, 9)
                repro.apps.sor._sweep(local, phase, lo, lo + 1, 9)
                assert np.array_equal(local, expected)
                changed = np.flatnonzero(local[1] != before[1])
                first = 1 + (lo + phase) % 2
                assert list(changed) == list(range(first, 8, 2))
                assert np.array_equal(local[[0, 2]], before[[0, 2]])  # halo


def eliminate_by_rank1(rows, piv, k0, k1):
    """The rank-1 loop over the pivot rows ``lu._eliminate`` was before it
    became a panel solve plus one GEMM; kept as its oracle."""
    for k in range(k0, k1):
        rows[:, k] /= piv[k - k0, k]
        rows[:, k + 1:] -= rows[:, k, None] * piv[k - k0, k + 1:]


def factor_by_rank1(panel, k0):
    """The rank-1 loop ``lu._factor`` was, over the whole panel width,
    before the columns right of the diagonal block became one solve."""
    for i in range(panel.shape[0]):
        k = k0 + i
        panel[i + 1:, k] /= panel[i, k]
        panel[i + 1:, k + 1:] -= panel[i + 1:, k, None] * panel[i, k + 1:]


def elimination_inputs(n, k0, k1, m, seed):
    """``m`` rows to eliminate and pivot rows [k0, k1) of an ``n``-column
    matrix, every entry in [1, 2) but the pivot block's diagonal, which
    adds 8n: no factor or elimination subtracts more than half of an
    entry, so no result is near zero and a relative tolerance means
    something."""
    rng = np.random.default_rng(seed)
    piv = 1 + rng.random((k1 - k0, n))
    piv[:, k0:k1] += np.eye(k1 - k0) * 8 * n
    return 1 + rng.random((m, n)), piv


@st.composite
def elimination_cases(draw):
    n = draw(st.integers(1, 40))
    block = draw(st.integers(1, n))
    k0 = block * draw(st.integers(0, (n - 1) // block))  # any panel, last too
    m = draw(st.integers(0, 2 * block))                   # zero rows too
    return n, k0, min(k0 + block, n), m, draw(st.integers(0, 2**32 - 1))


class TestLuKernels:
    @given(elimination_cases())
    @example((40, 16, 32, 16, 0))   # a middle panel: k0 > 0, columns after it
    @example((40, 32, 40, 5, 0))    # ragged last panel: the GEMM has no columns
    @example((40, 7, 8, 9, 0))      # block == 1
    @example((40, 16, 32, 0, 0))    # no rows
    def test_blocked_elimination_matches_the_rank1_loop(self, case):
        rows, piv = elimination_inputs(*case)
        before, expected = rows.copy(), rows.copy()
        eliminate_by_rank1(expected, piv, *case[1:3])
        repro.apps.lu._eliminate(rows, piv, *case[1:3])
        np.testing.assert_allclose(rows, expected, rtol=1e-12)
        k0 = case[1]
        assert np.array_equal(rows[:, :k0], before[:, :k0])  # earlier L kept

    @given(elimination_cases())
    def test_blocked_factor_matches_the_rank1_loop(self, case):
        n, k0, k1, _, seed = case
        _, panel = elimination_inputs(n, k0, k1, 0, seed)
        expected = panel.copy()
        factor_by_rank1(expected, k0)
        repro.apps.lu._factor(panel, k0)
        np.testing.assert_allclose(panel, expected, rtol=1e-12)

    @pytest.mark.parametrize("n,block", [(96, 16), (96, 40), (33, 1),
                                         (20, 64)])
    def test_reference_factors_rebuild_the_input(self, n, block):
        a = (np.random.default_rng(n).random((n, n)) + np.eye(n) * n)
        m = repro.apps.lu._reference_lu(a, block)
        lower = np.tril(m, -1) + np.eye(n)
        assert np.abs(lower @ np.triu(m) - a).max() <= 1e-10


def pair_forces_by_row(pos, i_lo, i_hi):
    """The row loop ``water._pair_forces`` was before it became blocked
    numpy; kept as its oracle."""
    forces = np.zeros_like(pos)
    for i in range(i_lo, i_hi):
        delta = pos[i + 1:] - pos[i]
        r2 = (delta * delta).sum(axis=1) + repro.apps.water.EPS
        inv = 1.0 / (r2 * r2 * np.sqrt(r2))
        f = delta * inv[:, None]
        forces[i] -= f.sum(axis=0)
        forces[i + 1:] += f
    return forces


@st.composite
def pair_cases(draw):
    n = draw(st.integers(1, 150))
    i_lo = draw(st.integers(0, n))
    i_hi = draw(st.integers(i_lo, n))                 # i_lo == i_hi: no rows
    # whole-number positions repeat, so some deltas and sums are exactly 0
    return n, i_lo, i_hi, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


class TestWaterKernel:
    @given(pair_cases())
    @example((40, 17, 17, False, 0))    # an empty range
    @example((40, 39, 40, False, 0))    # the last row alone
    @example((1, 0, 1, False, 0))       # one molecule
    @example((64, 0, 64, False, 0))     # whole blocks only (BLOCK is 32)
    @example((65, 0, 65, False, 0))     # a one-row last block
    @example((129, 0, 129, False, 0))   # four whole blocks and one row
    @example((129, 50, 129, True, 0))   # blocks from row 50, repeats
    def test_blocked_forces_are_bit_identical_to_the_row_loop(self, case):
        n, i_lo, i_hi, whole, seed = case
        pos = np.random.default_rng(seed).random((n, 3)) * 10.0
        if whole:
            pos = np.floor(pos)
        expected = pair_forces_by_row(pos, i_lo, i_hi)
        forces = repro.apps.water._pair_forces(pos, i_lo, i_hi)
        assert np.array_equal(forces.view(np.uint64),
                              expected.view(np.uint64))


class TestLuWritesStayHome:
    """The LU kernels round differently from the loops they replaced, and
    no simulated field sees it, because after the init barrier every LU
    write lands on a page its writer homes (``_panel_homes``): JiaJia keeps
    no twin of a home page, so it makes no diff of one."""

    @pytest.mark.parametrize("name", ["sw-dsm-4", "native-jiajia-4"])
    def test_every_diff_is_made_by_the_end_of_init(self, monkeypatch, name):
        plat = preset(name).build()
        native = name.startswith("native")
        api = (NativeJiaJiaApi if native else JiaJiaApi)(plat.hamster)
        diffs, factors = [], []
        real_diff = repro.dsm.jiajia.protocol.make_diff
        real_factor = repro.apps.lu._factor_g

        def make_diff(*args):
            diffs.append(plat.engine.now)
            return real_diff(*args)

        def factor_g(*args):  # the first call starts the factor phase
            factors.append(plat.engine.now)
            return (yield from real_factor(*args))

        monkeypatch.setattr(repro.dsm.jiajia.protocol, "make_diff", make_diff)
        monkeypatch.setattr(repro.apps.lu, "_factor_g", factor_g)
        results = api.run(functools.partial(repro.apps.lu.run_lu, n=128,
                                            block=16))
        assert all(r.verified for r in results)
        assert diffs, "rank 0's init writes to remote pages make diffs"
        assert len(factors) == 128 // 16
        assert max(diffs) <= min(factors)


#: (app, module, its sequential-reference function, small params)
REFERENCES = [
    ("sor", repro.apps.sor, "_reference", dict(n=32, iterations=2)),
    ("lu", repro.apps.lu, "_reference_lu", dict(n=64, block=16)),
    ("water", repro.apps.water, "_reference", dict(molecules=24, steps=1)),
    ("matmult", repro.apps.matmult, "_reference", dict(n=32)),
    ("fft", repro.apps.fft, "_reference", dict(n1=16, n2=16)),
]

THREE_RANKS = ClusterConfig(platform="beowulf", dsm="jiajia", nodes=3,
                            name="sw-dsm-3")  # divides none of the sizes


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("app,module,name,params", REFERENCES,
                         ids=[r[0] for r in REFERENCES])
class TestOneReferencePerRun:
    @pytest.mark.parametrize("config", [preset("hybrid-4"), THREE_RANKS],
                             ids=["4-ranks", "3-ranks-uneven"])
    def test_reference_runs_once_whatever_the_rank_count(
            self, monkeypatch, app, module, name, params, config):
        calls = count_calls(monkeypatch, module, name)
        assert run_app_on(config, app, **params).verified
        assert len(calls) == 1

    def test_verify_false_never_computes_a_reference(
            self, monkeypatch, app, module, name, params):
        calls = count_calls(monkeypatch, module, name)
        result = run_app_on(preset("hybrid-4"), app, verify=False, **params)
        assert calls == []
        assert result.checksum == 0.0


#: Where to hit each app's result array: an element of rank 2's part of it
#: on four ranks (rows [lo, hi) of a block partition; LU's panel 2).
CORRUPTIONS = {
    "sor": ("sor.grid", (20, 5)),       # interior rows 17..23
    "lu": ("lu.A", (40, 50)),           # panel 2 = rows 32..47
    "water": ("water.pos", (14, 1)),    # molecules 12..17
    "matmult": ("mm.C", (20, 5)),       # rows 16..23
    "fft": ("fft.B", (10, 3, 0)),       # transposed rows 8..11
}


@pytest.mark.parametrize("app,module,name,params", REFERENCES,
                         ids=[r[0] for r in REFERENCES])
class TestEveryRankChecksRealData:
    def corrupt_before_verify(self, monkeypatch, module, app):
        """Arm the reference's join point, the app's one call of
        ``reference_once_per_run`` where it verifies, so that the moment the
        first rank enters its verify phase — all compute barriers passed,
        no rank has read its slice back yet — one element of rank 2's share
        of the result is changed in shared memory (an SMP platform: one
        buffer, no copies)."""
        array_name, index = CORRUPTIONS[app]
        ask, done = module.reference_once_per_run, []

        def corrupting(api, key, make):
            if not done:
                done.append(key)
                dsm = api.hamster.dsm
                # (every rank's collective call allocated a region of this
                # name; the ranks share one of them — hit them all)
                for array in dsm._arrays.values():
                    if array.name == array_name:
                        buffer = dsm._buffers[array.region.region_id]
                        array._view(buffer)[index] += 1.0
            return ask(api, key, make)

        monkeypatch.setattr(module, "reference_once_per_run", corrupting)
        return done

    def test_corrupted_block_fails_its_own_rank_only(
            self, monkeypatch, app, module, name, params):
        done = self.corrupt_before_verify(monkeypatch, module, app)
        plat = preset("smp-4").build()
        results = JiaJiaApi(plat.hamster).run(
            functools.partial(get_app(app), **params))
        assert done
        assert [r.verified for r in results] == [True, True, False, True]

    def test_corrupted_block_fails_the_run(
            self, monkeypatch, app, module, name, params):
        self.corrupt_before_verify(monkeypatch, module, app)
        with pytest.raises(AppError, match="verification"):
            run_app_on(preset("smp-4"), app, **params)


def record_thread_starts(monkeypatch):
    """Every thread started from now on, in order (each still starts)."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


#: each array app at the size a scale-0.05 sweep cell runs it (fft, which
#: has no figure label, at its default 64 x 64 grid), and LU at the size of
#: `LU all@0.5`, where the reference is the cell's largest host step
INLINE_CELLS = [
    ("sor", repro.apps.sor, "_reference", "hybrid-4",
     dict(n=48, iterations=10)),
    ("lu", repro.apps.lu, "_reference_lu", "hybrid-4", dict(n=64, block=16)),
    ("matmult", repro.apps.matmult, "_reference", "hybrid-4", dict(n=48)),
    ("water", repro.apps.water, "_reference", "hybrid-4",
     dict(molecules=40, steps=2)),
    ("fft", repro.apps.fft, "_reference", "hybrid-4", dict(n1=64, n2=64)),
    ("lu", repro.apps.lu, "_reference_lu", "smp-2", dict(n=512, block=32)),
]


class TestReferenceAtVerification:
    """The first rank to verify computes the reference on the run's own
    thread, whatever its size; ``verify=False`` never asks for it."""

    @pytest.mark.parametrize("app,module,name,platform,params", INLINE_CELLS,
                             ids=[f"{c[0]}-{c[3]}" for c in INLINE_CELLS])
    def test_the_pair_is_a_direct_call_of_the_reference(
            self, monkeypatch, app, module, name, platform, params):
        reference_of = getattr(module, name)
        calls = count_calls(monkeypatch, module, name)
        started = record_thread_starts(monkeypatch)
        _, plat = run_app_detailed(preset(platform), app, **params)
        assert started == []
        ((reference, checksum),) = [
            value for key, value in plat.hamster.once_per_run.items()
            if key[1] == "reference"]
        expected = reference_of(*calls[0])
        assert reference.dtype == expected.dtype
        assert reference.tobytes() == expected.tobytes()
        assert checksum == float(np.abs(expected).sum())

    @pytest.mark.parametrize("verify", [True, False])
    def test_make_runs_only_when_the_run_verifies(self, monkeypatch, verify):
        made, ask = [], repro.apps.lu.reference_once_per_run

        def asking(api, key, make):
            return ask(api, key, lambda: made.append(key) or make())

        monkeypatch.setattr(repro.apps.lu, "reference_once_per_run", asking)
        run_app_detailed(preset("hybrid-4"), "lu", n=64, block=16,
                         verify=verify)
        assert made == [("lu", "reference", 64, 11, 16)] * verify

    def test_an_error_in_make_surfaces_from_the_verifying_rank(
            self, monkeypatch):
        def broken(initial, iterations):
            raise ValueError("reference blew up")

        monkeypatch.setattr(repro.apps.sor, "_reference", broken)
        with pytest.raises(ValueError, match="reference blew up"):
            run_app_on(preset("hybrid-4"), "sor", n=32, iterations=1)


class TestSharedRunState:
    def test_shared_arrays_are_read_only(self):
        plat = preset("hybrid-2").build()
        api = JiaJiaApi(plat.hamster)
        one = once_per_run(api, ("t", "one"), lambda: np.zeros(4))
        pair = once_per_run(api, ("t", "pair"),
                            lambda: (np.zeros(4), np.ones(4)))
        assert once_per_run(api, ("t", "one"), lambda: 1 / 0) is one
        for shared in (one, *pair):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 7.0

    def test_in_place_write_to_a_shared_input_raises(self):
        _, plat = run_app_detailed(preset("hybrid-4"), "sor", n=32,
                                   iterations=1, seed=3)
        shared = plat.hamster.once_per_run
        initial = shared[("sor", "input", 32, 3)]
        reference, _checksum = shared[("sor", "reference", 32, 3, 1)]
        for array in (initial, reference):
            with pytest.raises(ValueError, match="read-only"):
                array[5, 5] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                array[4:6, :] += 1.0

    def test_fresh_platforms_share_nothing(self):
        """Back-to-back runs: what a run shares lives on its own platform
        and nowhere else, whether the next run's seed differs or not."""
        runs = [run_app_detailed(preset("hybrid-4"), "sor", n=32,
                                 iterations=1, seed=seed)
                for seed in (1, 2, 1)]
        (a, plat_a), (b, plat_b), (again, plat_again) = runs
        assert set(plat_a.hamster.once_per_run) == {
            ("sor", "input", 32, 1), ("sor", "reference", 32, 1, 1)}
        assert set(plat_b.hamster.once_per_run) == {
            ("sor", "input", 32, 2), ("sor", "reference", 32, 2, 1)}
        assert a.checksum != b.checksum
        first = plat_a.hamster.once_per_run[("sor", "input", 32, 1)]
        second = plat_again.hamster.once_per_run[("sor", "input", 32, 1)]
        assert first is not second and not np.shares_memory(first, second)
        assert np.array_equal(first, second)
        assert again.checksum == a.checksum


class TestAppRegistry:
    def test_table1_contents(self):
        assert set(APP_TABLE) == {"matmult", "pi", "sor", "lu", "water",
                                  "fft"}  # fft = extension beyond Table 1
        assert APP_TABLE["matmult"]["working_set"] == "1024x1024 matrix"
        assert APP_TABLE["water"]["working_set"] == "288 / 343 molecules"

    def test_get_app_unknown(self):
        with pytest.raises(AppError):
            get_app("quake")

    def test_merge_rank_results(self):
        a = AppResult(app="x", rank=0, phases={"total": 1.0, "init": 0.5},
                      verified=True, checksum=7.0)
        b = AppResult(app="x", rank=1, phases={"total": 2.0, "init": 0.25},
                      verified=True, checksum=7.0)
        merged = merge_rank_results([a, b])
        assert merged.phases == {"total": 2.0, "init": 0.5}
        assert merged.verified

    def test_merge_fails_if_any_unverified(self):
        a = AppResult(app="x", rank=0, phases={"total": 1.0}, verified=True)
        b = AppResult(app="x", rank=1, phases={"total": 1.0}, verified=False)
        assert not merge_rank_results([a, b]).verified
