"""Rendering of experiment rows and telemetry reports.

Used by the pytest benches (printed under ``-s`` / captured into the bench
logs) and by the EXPERIMENTS.md generator, so the repository's recorded
results and the benches' live output come from one formatter. The
``telemetry_*`` family turns a :mod:`repro.bench.telemetry` document (plus
optional compare verdicts and metrics-sampler data) into the markdown/HTML
artifact ``python -m repro bench report`` publishes.
"""

from __future__ import annotations

import html as _html
from typing import Any, Dict, List, Optional, Sequence, Union

__all__ = ["render_table", "render_bars", "host_cells",
           "telemetry_markdown", "telemetry_html"]

Cell = Union[str, int, float]


def _fmt(value: Cell, width: int) -> str:
    if isinstance(value, float):
        return f"{value:>{width}.2f}"
    return f"{value!s:>{width}}" if isinstance(value, int) else f"{value!s:<{width}}"


def render_table(headers: Sequence[str], rows: Sequence[Sequence[Cell]],
                 title: str = "") -> str:
    """Monospace table with a rule under the header."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            text = f"{cell:.2f}" if isinstance(cell, float) else str(cell)
            widths[i] = max(widths[i], len(text))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(f"{h:<{w}}" for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(_fmt(c, w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_bars(values: Dict[str, float], unit: str = "%",
                width: int = 40, title: str = "") -> str:
    """ASCII bar chart for figure-style data (negative bars point left)."""
    if not values:
        return title
    peak = max(abs(v) for v in values.values()) or 1.0
    lines: List[str] = [title] if title else []
    for label, value in values.items():
        bar_len = int(round(abs(value) / peak * (width // 2)))
        if value >= 0:
            bar = " " * (width // 2) + "#" * bar_len
        else:
            bar = " " * (width // 2 - bar_len) + "#" * bar_len
        lines.append(f"{label:>10s} |{bar:<{width}}| {value:+8.2f}{unit}")
    return "\n".join(lines)


# ------------------------------------------------------- telemetry reports
def host_cells(rec: Dict[str, Any]) -> List[str]:
    """The ``events/s`` and ``host ms`` cells of a record's table row —
    facts about the run that produced it, displayed and never compared;
    a committed baseline record carries neither."""
    if "host_seconds" not in rec:
        return ["-", "-"]
    return [f"{rec['events_per_sec']:,.0f}", f"{rec['host_seconds'] * 1e3:.1f}"]


def _telemetry_sections(doc: Dict[str, Any], compare=None,
                        metrics: Optional[List[Dict[str, Any]]] = None,
                        metrics_top: int = 15):
    """(title, headers, rows) sections shared by the md and html writers."""
    sections = []
    rec_rows = []
    for rec in doc.get("records", []):
        cp = rec.get("critical_path", {})
        cp_total = sum(cp.values()) or 1.0
        rec_rows.append([
            rec["id"], f"{rec['virtual_seconds'] * 1e3:.3f}",
            rec["events_executed"], *host_cells(rec),
            f"{100.0 * cp.get('compute', 0.0) / cp_total:.0f}%",
            f"{100.0 * cp.get('protocol', 0.0) / cp_total:.0f}%",
            f"{100.0 * cp.get('wire', 0.0) / cp_total:.0f}%",
            f"{100.0 * cp.get('blocked', 0.0) / cp_total:.0f}%",
        ])
    sections.append((
        f"Telemetry — suite {doc.get('suite')!r} (scale {doc.get('scale')})",
        ["benchmark", "virtual ms", "events", "events/s", "host ms",
         "compute", "protocol", "wire", "blocked"],
        rec_rows))
    if compare is not None:
        sections.append((
            "Baseline comparison",
            ["benchmark", "metric", "verdict", "current", "baseline",
             "delta"],
            [v.as_row() for v in compare.verdicts]))
        shape_rows = ([[violation] for violation in compare.shape_violations]
                      or [["all figure orderings hold"]])
        sections.append(("Paper-shape gate", ["finding"], shape_rows))
    if metrics:
        last = metrics[-1].get("values", {})
        peaks: Dict[str, float] = {}
        for point in metrics:
            for key, value in point.get("values", {}).items():
                peaks[key] = max(peaks.get(key, float("-inf")), float(value))
        keys = sorted(last, key=lambda k: -abs(last[k]))[:metrics_top]
        sections.append((
            f"Sampled metrics ({len(metrics)} samples; top {len(keys)} "
            "keys by final value)",
            ["metric", "final", "peak"],
            [[k, f"{last[k]:g}", f"{peaks[k]:g}"] for k in keys]))
    return sections


def telemetry_markdown(doc: Dict[str, Any], compare=None,
                       metrics: Optional[List[Dict[str, Any]]] = None) -> str:
    """Render a telemetry document (and optional compare result /
    metrics-sampler samples) as a markdown report."""
    lines: List[str] = ["# Benchmark telemetry report", ""]
    host = doc.get("host", {})
    if host:
        lines += [f"*Host: python {host.get('python', '?')} on "
                  f"{host.get('system', '?')}/{host.get('machine', '?')}*", ""]
    for title, headers, rows in _telemetry_sections(doc, compare, metrics):
        lines += [f"## {title}", ""]
        lines.append("| " + " | ".join(headers) + " |")
        lines.append("|" + "|".join("---" for _ in headers) + "|")
        for row in rows:
            lines.append("| " + " | ".join(str(c) for c in row) + " |")
        lines.append("")
    return "\n".join(lines)


def telemetry_html(doc: Dict[str, Any], compare=None,
                   metrics: Optional[List[Dict[str, Any]]] = None) -> str:
    """Self-contained HTML version of :func:`telemetry_markdown`."""
    parts: List[str] = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>Benchmark telemetry report</title>",
        "<style>body{font-family:sans-serif;margin:2em}"
        "table{border-collapse:collapse;margin:1em 0}"
        "td,th{border:1px solid #999;padding:4px 8px;text-align:right}"
        "th{background:#eee}td:first-child,th:first-child{text-align:left}"
        ".regress{background:#fdd}.improve{background:#dfd}</style>",
        "</head><body><h1>Benchmark telemetry report</h1>"]
    host = doc.get("host", {})
    if host:
        parts.append(f"<p><em>Host: python "
                     f"{_html.escape(str(host.get('python', '?')))} on "
                     f"{_html.escape(str(host.get('system', '?')))}/"
                     f"{_html.escape(str(host.get('machine', '?')))}"
                     f"</em></p>")
    for title, headers, rows in _telemetry_sections(doc, compare, metrics):
        parts.append(f"<h2>{_html.escape(title)}</h2><table><tr>"
                     + "".join(f"<th>{_html.escape(h)}</th>" for h in headers)
                     + "</tr>")
        for row in rows:
            cells = [str(c) for c in row]
            css = (" class='regress'" if "regress" in cells
                   or "fingerprint-mismatch" in cells
                   else " class='improve'" if "improve" in cells else "")
            parts.append(f"<tr{css}>" + "".join(
                f"<td>{_html.escape(c)}</td>" for c in cells) + "</tr>")
        parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts)
