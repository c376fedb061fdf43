"""Checks of the benchmark itself. Not part of tier-1 (``testpaths`` is
``tests``); run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One ``--quick`` run of all four workloads: (document, seconds)."""
    out = tmp_path_factory.mktemp("perf") / "quick.json"
    began = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "run.py"), "--quick",
                    "--json-out", str(out)], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=300)
    return json.loads(out.read_text()), time.perf_counter() - began


def test_benchmark_json_names_the_metrics_the_program_reports(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ({m["name"]: m["unit"] for m in spec["end_to_end"]}
            == run.END_TO_END)
    assert ({m["name"]: m["unit"] for m in spec["per_layer"]}
            == run.per_layer_units())
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert spec["paths"] == ["benchmarks/perf"]
    assert (ROOT / spec["command"][1]).samefile(HERE / "run.py")


def test_names_and_units_fit_the_charset(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert len(spec["per_layer"]) <= 128


def test_quick_finishes_within_a_minute_without_failures(quick):
    doc, seconds = quick
    assert seconds < 60
    assert list(doc["workloads"]) == list(workloads.WORKLOADS)
    for name, w in doc["workloads"].items():
        assert w["failed"] == 0 and w["attempted"] > 0, (name, w["failures"])
        assert set(w["end_to_end"]) == set(run.END_TO_END)
        assert all(m["value"] > 0 for m in w["end_to_end"].values())


def test_every_per_layer_metric_is_reported_with_a_unit(quick):
    units = run.per_layer_units()
    for name, w in quick[0]["workloads"].items():
        assert list(w["per_layer"]) == list(units), name
        for metric, m in w["per_layer"].items():
            assert m["unit"] == units[metric]
            assert m["value"] is not None or m["note"], (name, metric)


def test_layer_shares_sum_to_one(quick):
    for name, w in quick[0]["workloads"].items():
        shares = [w["per_layer"][f"trace.{layer}.self_frac"]["value"]
                  for layer in layers.LAYERS]
        assert abs(sum(shares) - 1.0) <= 0.02, (name, shares)
        assert w["per_layer"]["trace.overhead_ratio"]["value"] > 0


def test_driver_mode_prints_one_result_object_last(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--quick", "--workload",
             "hwpaths", "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=120)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]


def test_a_probe_whose_entry_point_is_gone_reports_null():
    out = {}
    probes._guard({"sim.gone_ns": "ns"},
                  lambda: {"sim.gone_ns": probes.kernel(object(), "gone")()},
                  out)
    assert out["sim.gone_ns"]["value"] is None
    assert out["sim.gone_ns"]["unit"] == "ns"
    assert "AttributeError" in out["sim.gone_ns"]["note"]


def test_kernel_prefers_the_g_suffix_and_survives_its_removal():
    class Today:
        def lock(self):
            return "blocking"

        def lock_g(self):
            return "kernel"

    class Renamed:
        def lock(self):
            return "kernel"

    assert probes.kernel(Today(), "lock")() == "kernel"
    assert probes.kernel(Renamed(), "lock")() == "kernel"
