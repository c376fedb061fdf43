"""Tests for the node-count scaling-curve suite (repro.bench.scaling)."""

from __future__ import annotations

import pytest

from repro.bench.scaling import (CURVES, curve_points, render_scaling,
                                 run_scaling_curves)
from repro.bench.telemetry import validate_telemetry
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def eth_doc():
    return run_scaling_curves(fabrics=("eth",), max_nodes=64).doc


class TestCurveLadders:
    def test_ladders_are_sorted_and_end_at_1024(self):
        for fabric, ladder in CURVES.items():
            counts = [n for n, _preset in ladder]
            assert counts == sorted(counts)
            assert counts[-1] == 1024, fabric

    def test_sci_ladder_uses_torus_presets(self):
        from repro.config import preset

        for nodes, name in CURVES["sci"]:
            cfg = preset(name)
            width = cfg.param_overrides.get("sci_torus_width", 0)
            if width:
                assert width * width == nodes

    def test_unknown_fabric_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fabric"):
            run_scaling_curves(fabrics=("eth", "myrinet"))


class TestScalingDocument:
    def test_is_valid_telemetry(self, eth_doc):
        assert validate_telemetry(eth_doc) == []
        assert eth_doc["suite"] == "scaling"

    def test_records_carry_curve_identity(self, eth_doc):
        points = curve_points(eth_doc)["eth"]
        assert [r["nodes"] for r in points] == [4, 64]
        assert all(r["fabric"] == "eth" for r in points)
        assert all(r["verified"] for r in points)
        assert all(r["events_per_sec"] > 0 for r in points)

    def test_max_nodes_truncates_the_ladder(self):
        result = run_scaling_curves(fabrics=("sci",), max_nodes=4)
        assert [r["nodes"] for r in result.records] == [4]

    def test_more_nodes_more_events(self, eth_doc):
        """The curve's point: event volume grows with the cluster (the
        simulator is actually exercising the larger topology)."""
        points = curve_points(eth_doc)["eth"]
        assert points[1]["events_executed"] > points[0]["events_executed"]

    def test_render(self, eth_doc):
        text = render_scaling(eth_doc)
        assert "scaling curves" in text
        assert "eth-64" in text
        assert "events/s" in text


class TestScalingCli:
    def test_bench_scaling_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "curve.json"
        code = main(["bench", "scaling", "--fabric", "eth",
                     "--max-nodes", "4", "--json-out", str(out)])
        assert code == 0
        assert out.exists()
        text = capsys.readouterr().out
        assert "scaling curves" in text
