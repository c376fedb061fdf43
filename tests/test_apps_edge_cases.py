"""Edge cases for the benchmark applications: uneven partitions, odd rank
counts, degenerate sizes, and phase accounting."""

import numpy as np
import pytest

from repro.apps import get_app
from repro.apps.common import merge_rank_results
from repro.apps.lu import run_lu
from repro.apps.water import run_water
from repro.bench.runners import run_app_detailed
from repro.config import ClusterConfig, preset
from repro.errors import ConfigurationError
from repro.models.jiajia_api import JiaJiaApi


def run(config, app, **params):
    plat = config.build()
    api = JiaJiaApi(plat.hamster)
    fn = get_app(app)
    results = api.run(lambda a: fn(a, **params))
    merged = merge_rank_results(results)
    assert merged.verified, (app, params, config.name)
    return merged


class TestUnevenPartitions:
    """3 ranks never divide the working sets evenly — every app must still
    cover the full iteration space exactly once."""

    @pytest.fixture(scope="class")
    def cfg3(self):
        return ClusterConfig(platform="beowulf", dsm="jiajia", nodes=3,
                             name="sw-dsm-3")

    def test_matmult_3_ranks(self, cfg3):
        assert run(cfg3, "matmult", n=48).verified

    def test_sor_3_ranks(self, cfg3):
        assert run(cfg3, "sor", n=47, iterations=2).verified

    def test_lu_3_ranks_with_ragged_last_panel(self, cfg3):
        # 80 = 5 panels of 16: 5 % 3 != 0, last panel full-sized.
        assert run(cfg3, "lu", n=80, block=16).verified

    def test_water_3_ranks(self, cfg3):
        assert run(cfg3, "water", molecules=25, steps=1).verified

    def test_pi_3_ranks(self, cfg3):
        assert run(cfg3, "pi", intervals=1000).verified  # not divisible by 3


class TestDegenerateSizes:
    # one panel, no updates; block > n is a legal one-panel run too
    @pytest.mark.parametrize("n,block", [(16, 16), (24, 40), (1, 1)])
    def test_lu_single_panel(self, n, block):
        merged = run(preset("sw-dsm-2"), "lu", n=n, block=block)
        assert merged.phases["core"] >= 0

    def test_sor_minimum_interior(self):
        cfg = preset("sw-dsm-2")
        assert run(cfg, "sor", n=8, iterations=1).verified

    def test_water_two_molecules(self):
        cfg = preset("hybrid-2")
        assert run(cfg, "water", molecules=2, steps=1).verified

    def test_matmult_one_row_per_rank(self):
        cfg = preset("sw-dsm-4")
        assert run(cfg, "matmult", n=4).verified

    def test_pi_one_interval(self):
        cfg = preset("hybrid-2")
        merged = run(cfg, "pi", intervals=1, verify=False)
        assert merged.phases["total"] > 0


class TestLuSizes:
    @pytest.mark.parametrize("params,named", [
        (dict(n=0), "n=0"), (dict(n=-8), "n=-8"),
        (dict(n=16, block=0), "block=0"), (dict(n=16, block=-1), "block=-1"),
    ])
    def test_malformed_sizes_are_refused_before_anything_is_allocated(
            self, params, named):
        body = run_lu(None, **params)  # touching the api would raise
        with pytest.raises(ConfigurationError, match=named):
            next(body)
        with pytest.raises(ConfigurationError, match=named):
            run(preset("sw-dsm-2"), "lu", **params)


class TestMalformedSizesOfTheOtherApps:
    """Every size is a whole number >= 1 and every count one >= 0, checked
    before ``jia_init_g`` (``repro.apps.common.whole_params``): each of
    these raised an ``IndexError``, ``ValueError``, ``ZeroDivisionError``
    or ``AssertionError`` from deep inside the run, or (a negative SOR
    iteration count) ran and verified."""

    @pytest.mark.parametrize("app,params,named", [
        ("sor", dict(n=0), "n=0"), ("sor", dict(n=-8), "n=-8"),
        ("sor", dict(n=8, iterations=-1), "iterations=-1"),
        ("pi", dict(intervals=0), "intervals=0"),
        ("pi", dict(intervals=float("nan")), "intervals=nan"),
        ("pi", dict(intervals=-5), "intervals=-5"),
        ("matmult", dict(n=float("nan")), "n=nan"),
        ("matmult", dict(n=-4), "n=-4"),
        ("fft", dict(n1=0), "n1=0"),
    ])
    def test_refused_before_anything_is_allocated(self, app, params, named):
        body = get_app(app)(None, **params)  # touching the api would raise
        with pytest.raises(ConfigurationError, match=f"{app}: .*{named}"):
            next(body)
        with pytest.raises(ConfigurationError, match=named):
            run_app_detailed(preset("sw-dsm-4"), app, **params)

    @pytest.mark.parametrize("app,params", [
        ("sor", dict(n=8.0, iterations=1.0)), ("pi", dict(intervals=8.0)),
        ("matmult", dict(n=4.0)), ("fft", dict(n1=4.0, n2=4.0)),
        ("lu", dict(n=8.0, block=4.0)), ("water", dict(molecules=4.0)),
    ])
    def test_a_whole_float_is_a_size(self, app, params):
        merged, _ = run_app_detailed(preset("sw-dsm-2"), app, **params)
        assert merged.verified


class TestWaterSizes:
    @pytest.mark.parametrize("params,named", [
        (dict(molecules=0), "molecules=0"),
        (dict(molecules=-3), "molecules=-3"),
        (dict(molecules=float("nan")), "molecules=nan"),
        (dict(molecules=2.5), r"molecules=2\.5"),
        (dict(molecules=8, steps=-1), "steps=-1"),
    ])
    def test_malformed_sizes_are_refused_before_anything_is_allocated(
            self, params, named):
        body = run_water(None, **params)  # touching the api would raise
        with pytest.raises(ConfigurationError, match=named):
            next(body)
        with pytest.raises(ConfigurationError, match=named):
            run(preset("sw-dsm-2"), "water", **params)

    def test_zero_steps_leave_the_input_and_verify(self):
        merged = run(preset("sw-dsm-2"), "water", molecules=8, steps=0)
        assert merged.extra["steps"] == 0

    def test_a_whole_float_counts_molecules(self):
        merged = run(preset("sw-dsm-2"), "water", molecules=8.0, steps=1)
        assert merged.app == "water8"
        assert merged.extra["molecules"] == 8


class TestPhaseAccounting:
    def test_phases_are_nonnegative_and_total_consistent(self):
        for app, params in [("matmult", {"n": 32}),
                            ("sor", {"n": 32, "iterations": 2}),
                            ("water", {"molecules": 16, "steps": 1})]:
            merged = run(preset("hybrid-2"), app, **params)
            for name, value in merged.phases.items():
                assert value >= 0, (app, name)
            assert merged.phases["total"] >= merged.phases["init"]

    def test_lu_barrier_share_grows_with_ranks(self):
        """More ranks, same matrix: barrier share of no-init time rises
        (classic strong-scaling sync wall)."""
        def share(nodes):
            cfg = ClusterConfig(platform="beowulf", dsm="jiajia", nodes=nodes,
                                name=f"sw{nodes}")
            merged = run(cfg, "lu", n=64, block=16)
            return merged.phases["barrier"] / merged.phases["no_init"]

        assert share(4) > share(2) * 0.9  # rising or near-equal, never falls hard

    def test_verify_false_skips_reference(self):
        merged = run(preset("hybrid-2"), "sor", n=32, iterations=1,
                     verify=False)
        assert merged.verified  # vacuously true
        assert merged.checksum == 0.0


class TestSeedSensitivity:
    def test_different_seeds_different_data_same_behaviour(self):
        a = run(preset("sw-dsm-2"), "sor", n=32, iterations=2, seed=1)
        b = run(preset("sw-dsm-2"), "sor", n=32, iterations=2, seed=2)
        assert a.checksum != b.checksum
        # Protocol work is data-independent for SOR (dense writes).
        assert a.phases["total"] == pytest.approx(b.phases["total"], rel=0.05)
