"""Benchmark-application tests: correctness on every platform, phase
instrumentation, and run-to-run determinism."""

import functools

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.apps.fft
import repro.apps.lu
import repro.apps.matmult
import repro.apps.sor
import repro.apps.water
from repro.apps import get_app
from repro.apps.common import (APP_TABLE, AppError, AppResult, merge_rank_results,
                               once_per_run, row_block)
from repro.bench.runners import run_app_detailed, run_app_on
from repro.config import ClusterConfig, preset
from repro.models.jiajia_api import JiaJiaApi

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
        with pytest.raises(AssertionError, match="verification"):
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
        """Arm ``module`` so that, the moment the first rank enters its
        verify phase — all compute barriers passed, no rank has read its
        slice back yet — one element of rank 2's share of the result is
        changed in shared memory (an SMP platform: one buffer, no copies)."""
        array_name, index = CORRUPTIONS[app]
        real = module.reference_once_per_run
        done = []

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
            return real(api, key, make)

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
        with pytest.raises(AssertionError, match="verification"):
            run_app_on(preset("smp-4"), app, **params)


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
