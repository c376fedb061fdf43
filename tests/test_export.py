"""Tests for the machine-readable exporters."""

import csv
import io
import json
from functools import partial

import numpy as np
import pytest

from repro.apps.common import AppResult
from repro.bench.runners import run_app_on
from repro.config import preset
from repro.obs.export import figure_to_csv, run_to_json, stats_to_csv


def make_result():
    return AppResult(app="sor", rank=-1,
                     phases={"total": 0.25, "init": np.float64(0.05)},
                     verified=True, checksum=12.5,
                     extra={"n": 64, "locality": True})


class TestRunToJson:
    def test_round_trips_through_json(self):
        doc = json.loads(run_to_json(make_result()))
        assert doc["app"] == "sor"
        assert doc["verified"] is True
        assert doc["phases_seconds"]["total"] == 0.25
        assert doc["phases_seconds"]["init"] == 0.05  # numpy scalar coerced
        assert doc["params"]["locality"] is True

    def test_with_platform_profile(self):
        plat = preset("sw-dsm-2").build()
        merged = run_app_on_platform(plat)
        doc = json.loads(run_to_json(merged, platform=plat))
        assert "ranks" in doc and len(doc["ranks"]) == 2
        assert doc["wire"]["messages"] > 0
        assert doc["total_virtual_seconds"] > 0

    def test_stable_key_order(self):
        a = run_to_json(make_result())
        b = run_to_json(make_result())
        assert a == b


def run_app_on_platform(plat):
    from repro.apps import get_app
    from repro.apps.common import merge_rank_results
    from repro.models.jiajia_api import JiaJiaApi

    api = JiaJiaApi(plat.hamster)
    fn = get_app("pi")
    return merge_rank_results(api.run(partial(fn, intervals=4096)))


class TestFigureToCsv:
    def test_flat_rows(self):
        text = figure_to_csv({"MatMult": -0.22, "PI": 1.5},
                             value_header="overhead_pct")
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["benchmark", "overhead_pct"]
        assert rows[1] == ["MatMult", "-0.2200"]

    def test_nested_series(self):
        text = figure_to_csv({"PI": {"hardware": 100.0, "hybrid": 101.2}})
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["benchmark", "hardware", "hybrid"]
        assert rows[1] == ["PI", "100.0000", "101.2000"]


class TestStatsToCsv:
    def test_flattens_tree(self):
        plat = preset("smp-2").build()
        plat.hamster.run_spmd(lambda env: env.barrier())
        text = stats_to_csv(plat.hamster.query_statistics())
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["scope", "counter", "value"]
        scopes = {r[0] for r in rows[1:]}
        assert any(s.startswith("dsm.rank0") for s in scopes)
        assert "sync" in scopes

    def test_top_level_scalar(self):
        rows = list(csv.reader(io.StringIO(stats_to_csv({"events": 5}))))
        assert rows == [["scope", "counter", "value"], ["", "events", "5"]]


class TestCliJsonFlag:
    def test_run_writes_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.json"
        code = main(["run", "--preset", "hybrid-2", "--app", "pi",
                     "--param", "intervals=4096", "--json", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["app"] == "pi" and doc["verified"]
