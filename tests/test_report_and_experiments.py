"""Coverage for the reporting/rendering layer and the experiments CLI glue."""

import pytest

from repro.bench.report import render_bars, render_table
from repro.bench.runners import advantage_pct, overhead_pct, run_suite
from repro.config import preset


class TestRenderTableShapes:
    def test_mixed_cell_types(self):
        text = render_table(["s", "i", "f"], [["name", 42, 3.14159]])
        assert "name" in text and "42" in text and "3.14" in text

    def test_width_expands_to_widest_cell(self):
        text = render_table(["h"], [["a-very-long-cell-value"]])
        header, rule, row = text.splitlines()
        assert len(rule) >= len("a-very-long-cell-value")

    def test_no_rows(self):
        text = render_table(["a", "b"], [])
        assert "a" in text and "-" in text


class TestRenderBars:
    def test_all_positive(self):
        text = render_bars({"x": 3.0, "y": 1.0})
        x_line, y_line = text.splitlines()
        assert x_line.count("#") > y_line.count("#")

    def test_zero_values(self):
        text = render_bars({"x": 0.0})
        assert "+0.00" in text

    def test_custom_unit(self):
        assert "ms" in render_bars({"x": 1.0}, unit="ms")


class TestRunnersSmallScale:
    """Tiny-scale sanity runs of the figures' runners and derivations (full
    scale is the benchmarks' job; this just pins the wiring)."""

    def test_figure2_label_subset(self):
        data = overhead_pct(
            run_suite(preset("sw-dsm-4"), scale=0.04, labels=["PI"]),
            run_suite(preset("native-jiajia-4"), scale=0.04, native=True,
                      labels=["PI"]))
        assert set(data) == {"PI"}
        assert isinstance(data["PI"], float)

    def test_figure3_label_subset(self):
        labels = ["PI", "SOR opt"]
        data = advantage_pct(
            run_suite(preset("sw-dsm-4"), scale=0.04, labels=labels),
            run_suite(preset("hybrid-4"), scale=0.04, labels=labels))
        assert set(data) == {"PI", "SOR opt"}


class TestExperimentsCli:
    def test_tiny_scale_end_to_end(self, capsys):
        from repro.bench.experiments import main

        assert main(["experiments", "0.04"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "Figure 2" in out
        assert "Figure 3" in out
        assert "Figure 4" in out
