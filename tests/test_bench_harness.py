"""Tests for the evaluation harness: LoC metrics, runners, report rendering."""

import pytest

from repro.bench.loc_metrics import (ComplexityRow, count_logical_lines,
                                     model_complexity_table)
from repro.bench.report import render_bars, render_table
from repro.bench.runners import (BENCH_LABELS, WORKLOADS, normalized_pct,
                                 run_suite, table1_rows)
from repro.config import preset


class TestLogicalLineCounting:
    def test_comments_and_blanks_ignored(self):
        src = "# comment\n\nx = 1  # trailing\n\n# more\ny = 2\n"
        assert count_logical_lines(src) == 2

    def test_docstrings_ignored(self):
        src = '"""module doc\nspanning lines\n"""\n\ndef f():\n    "f doc"\n    return 1\n'
        assert count_logical_lines(src) == 2  # def f + return

    def test_continuation_lines_normalized(self):
        joined = "x = foo(1,\n        2,\n        3)\n"
        flat = "x = foo(1, 2, 3)\n"
        assert count_logical_lines(joined) == count_logical_lines(flat) == 1

    def test_class_and_method_docstrings(self):
        src = ('class A:\n'
               '    """doc"""\n'
               '    def m(self):\n'
               '        """doc\n        more"""\n'
               '        return 2\n')
        assert count_logical_lines(src) == 3  # class, def, return

    def test_string_assignment_is_code(self):
        # A string *expression* used as data (assigned) is code, not a doc.
        assert count_logical_lines('x = "hello"\n') == 1


class TestComplexityTable:
    def test_covers_all_nine_models(self):
        rows = model_complexity_table()
        assert len(rows) == 9
        assert all(isinstance(r, ComplexityRow) for r in rows)
        assert all(r.lines > 0 and r.api_calls > 0 for r in rows)

    def test_paper_shape_holds(self):
        """Table 2's qualitative structure: the JiaJia subset is the
        smallest layer; thread APIs are the largest; the overall average
        stays in the tens of lines per call."""
        rows = {r.model: r for r in model_complexity_table()}
        jia = rows["JiaJia API (subset)"]
        assert jia.lines == min(r.lines for r in rows.values())
        thread_lines = min(rows["POSIX threads"].lines,
                           rows["WIN32 threads"].lines)
        dsm_lines = max(rows["TreadMarks API"].lines,
                        rows["HLRC API"].lines, jia.lines)
        assert thread_lines > dsm_lines
        average = (sum(r.lines for r in rows.values())
                   / sum(r.api_calls for r in rows.values()))
        assert average < 25  # the paper's headline bound

    def test_lines_per_call(self):
        row = ComplexityRow(model="m", lines=50, api_calls=10)
        assert row.lines_per_call == 5.0


class TestRunners:
    def test_table1(self):
        rows = table1_rows()
        assert ("Matrix Multiplication", "1024x1024 matrix") in rows
        assert any("molecules" in ws for _, ws in rows)

    def test_labels_cover_paper_figures(self):
        assert BENCH_LABELS == ["MatMult", "PI", "SOR opt", "SOR", "LU all",
                                "LU", "LU core", "LU bar", "WATER 288",
                                "WATER 343"]
        assert set(WORKLOADS) == set(BENCH_LABELS)

    def test_workload_scaling(self):
        full = WORKLOADS["MatMult"].params(1.0)
        small = WORKLOADS["MatMult"].params(0.1)
        assert full["n"] == 1024
        assert 32 <= small["n"] < 1024

    def test_lu_labels_share_one_execution(self):
        labels = ["LU all", "LU", "LU core", "LU bar"]
        times = run_suite(preset("hybrid-2"), scale=0.06, labels=labels)
        assert times["LU core"] <= times["LU"] <= times["LU all"]
        assert times["LU bar"] < times["LU all"]

    def test_figure4_normalization(self):
        rows = normalized_pct(*(run_suite(preset(name), scale=0.06,
                                          labels=["PI"])
                                for name in ("smp-2", "hybrid-2", "sw-dsm-2")))
        assert rows["PI"]["hardware"] == 100.0
        assert rows["PI"]["software"] > 100.0  # SW-DSM slower than SMP on pi


class TestReport:
    def test_render_table(self):
        text = render_table(["name", "value"], [["a", 1.5], ["bb", 2.0]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "-" in lines[2]
        assert "1.50" in text

    def test_render_bars_signs(self):
        text = render_bars({"up": 5.0, "down": -5.0})
        up_line, down_line = text.splitlines()
        assert "+5.00" in up_line and "-5.00" in down_line
        assert "#" in up_line and "#" in down_line

    def test_render_bars_empty(self):
        assert render_bars({}, title="t") == "t"
