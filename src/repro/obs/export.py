"""Exports: Chrome ``trace_event`` JSON and machine-readable run files.

Three Chrome traces (Perfetto / ``chrome://tracing``) share one builder —
:func:`trace_document` for the envelope, :func:`process_name` for track
labels, :func:`complete` and :func:`counter` for slices and samples, with
timestamps in microseconds, the format's unit:

* :func:`chrome_trace` — the span tree: one complete (``"X"``) slice per
  span on track ``pid = rank`` / ``tid = node``; flow events (``"s"``/``"f"``)
  for every cross-rank causal link, so Perfetto draws the message arrows;
  and the metrics samples' cluster-wide series as counter (``"C"``) events,
* :func:`repro.obs.diagnose.sharing_chrome_trace` — per-page counter tracks,
* :meth:`repro.obs.fleet.FleetReport.chrome_trace` — one track per worker.

:func:`validate_chrome_trace` is the CI schema check: structural validation
with no third-party dependency, returning a list of human-readable errors
(empty = valid).

The run files — :func:`run_to_json` (one run and its platform profile),
:func:`figure_to_csv` (a figure's rows) and :func:`stats_to_csv` (a
statistics tree, flattened as the metrics sampler flattens it) — keep a
stable key order so diffs between runs are meaningful.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.obs.critical_path import category_of
from repro.obs.metrics import flatten
from repro.obs.spans import ObsRecorder

__all__ = ["chrome_trace", "chrome_trace_json", "validate_chrome_trace",
           "trace_document", "process_name", "complete", "counter",
           "run_to_json", "figure_to_csv", "stats_to_csv"]

#: pid used for spans not attributed to any rank (engine/cluster context)
CLUSTER_PID = 99

_US = 1e6  # seconds -> microseconds


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars and other exotic leaves to plain JSON types;
    mappings come out key-sorted."""
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(),
                                                        key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, bool, int)) or value is None:
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


# ------------------------------------------------------------ chrome traces
def trace_document(events: List[Dict[str, Any]], **other: Any) -> Dict[str, Any]:
    """The trace envelope around ``events``; ``other`` is its ``otherData``."""
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other}


def process_name(pid: int, label: str) -> Dict[str, Any]:
    """Metadata event labelling track ``pid``."""
    return {"name": "process_name", "ph": "M", "ts": 0.0, "pid": pid,
            "tid": 0, "args": {"name": label}}


def complete(name: str, cat: str, begin: float, end: float, pid: int,
             tid: int, args: Dict[str, Any]) -> Dict[str, Any]:
    """A complete (``"X"``) slice over ``[begin, end]`` seconds."""
    return {"name": name, "cat": cat, "ph": "X", "ts": begin * _US,
            "dur": max(end - begin, 0.0) * _US, "pid": pid, "tid": tid,
            "args": args}


def counter(name: str, cat: str, t: float, pid: int,
            args: Dict[str, Any]) -> Dict[str, Any]:
    """A counter (``"C"``) sample at ``t`` seconds."""
    return {"name": name, "cat": cat, "ph": "C", "ts": t * _US, "pid": pid,
            "tid": 0, "args": args}


def chrome_trace(recorder: ObsRecorder, metrics=None,
                 platform_name: str = "") -> Dict[str, Any]:
    """Build the trace document (a plain dict; see :func:`chrome_trace_json`)."""
    now = recorder.engine.now
    events: List[Dict[str, Any]] = []
    pids: Dict[int, str] = {}

    def pid_of(span) -> int:
        if span.rank is not None:
            pids.setdefault(span.rank, f"rank {span.rank}")
            return span.rank
        pids.setdefault(CLUSTER_PID, "cluster")
        return CLUSTER_PID

    for span in recorder.spans:
        end = span.end if span.end is not None else now
        pid = pid_of(span)
        args = _jsonable(span.fields)
        args["span_id"] = span.span_id
        if span.parent is not None:
            args["parent"] = span.parent
        events.append(complete(span.kind, category_of(span.kind), span.begin,
                               end, pid, span.node if span.node is not None
                               else 0, args))
        parent = recorder.get(span.parent)
        if parent is not None and parent.rank != span.rank:
            # Message causality across ranks: draw a flow arrow.
            src_pid = pid_of(parent)
            src_end = parent.end if parent.end is not None else now
            src_ts = min(max(span.begin, parent.begin), src_end)
            events.append({
                "name": "causal", "cat": "flow", "ph": "s",
                "id": span.span_id, "ts": src_ts * _US, "pid": src_pid,
                "tid": parent.node if parent.node is not None else 0,
            })
            events.append({
                "name": "causal", "cat": "flow", "ph": "f", "bp": "e",
                "id": span.span_id, "ts": span.begin * _US, "pid": pid,
                "tid": span.node if span.node is not None else 0,
            })
    if metrics is not None:
        # Cluster-wide series only: the per-rank DSM columns stay in the
        # metrics file, where ranks x counters tracks bury no span track.
        for point in metrics.samples:
            for key in sorted(point.values):
                if not key.startswith("dsm.rank"):
                    events.append(counter(key, "metric", point.time,
                                          CLUSTER_PID,
                                          {"value": point.values[key]}))
        if metrics.samples:
            pids.setdefault(CLUSTER_PID, "cluster")
    events += [process_name(pid, label) for pid, label in sorted(pids.items())]
    return trace_document(events, platform=platform_name,
                          total_virtual_seconds=now, spans=len(recorder.spans))


def chrome_trace_json(recorder: ObsRecorder, metrics=None,
                      platform_name: str = "", indent: Optional[int] = None) -> str:
    return json.dumps(chrome_trace(recorder, metrics=metrics,
                                   platform_name=platform_name),
                      indent=indent, sort_keys=True)


# ------------------------------------------------------------------ schema
_REQUIRED_BY_PH = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "B": ("name", "ts", "pid", "tid"),
    "E": ("ts", "pid", "tid"),
    "C": ("name", "ts", "pid", "args"),
    "M": ("name", "pid", "args"),
    "s": ("id", "ts", "pid", "tid"),
    "f": ("id", "ts", "pid", "tid"),
    "i": ("name", "ts", "pid", "tid"),
}


def validate_chrome_trace(doc: Union[str, Dict[str, Any]]) -> List[str]:
    """Structurally validate a Chrome trace document.

    Accepts the JSON text or the already-parsed dict; returns a list of
    error strings (empty means the trace is loadable by Perfetto /
    ``chrome://tracing``).
    """
    errors: List[str] = []
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            return [f"not valid JSON: {exc}"]
    if not isinstance(doc, dict):
        return [f"top level must be an object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    if not events:
        errors.append("'traceEvents' is empty")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: event must be an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or not ph:
            errors.append(f"{where}: missing 'ph'")
            continue
        required = _REQUIRED_BY_PH.get(ph)
        if required is None:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        for key in required:
            if key not in ev:
                errors.append(f"{where} (ph={ph}): missing {key!r}")
        ts = ev.get("ts")
        if ts is not None and (not isinstance(ts, (int, float)) or ts < 0):
            errors.append(f"{where}: 'ts' must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if dur is not None and (not isinstance(dur, (int, float)) or dur < 0):
                errors.append(f"{where}: 'dur' must be a non-negative number")
        if "pid" in ev and not isinstance(ev["pid"], int):
            errors.append(f"{where}: 'pid' must be an integer")
        if ph == "M" and not (isinstance(ev.get("args"), dict)
                              and "name" in ev["args"]):
            errors.append(f"{where}: metadata event needs args.name")
    flow_starts = {ev.get("id") for ev in events
                   if isinstance(ev, dict) and ev.get("ph") == "s"}
    for i, ev in enumerate(events):
        if isinstance(ev, dict) and ev.get("ph") == "f":
            if ev.get("id") not in flow_starts:
                errors.append(f"traceEvents[{i}]: flow finish without start "
                              f"(id={ev.get('id')!r})")
    return errors


# ---------------------------------------------------------------- run files
def run_to_json(result, platform=None, indent: int = 2) -> str:
    """Serialize one benchmark outcome (and optionally its platform's
    profile) to JSON."""
    doc: Dict[str, Any] = {
        "app": result.app,
        "verified": bool(result.verified),
        "checksum": float(result.checksum),
        "phases_seconds": _jsonable(result.phases),
        "params": _jsonable(result.extra),
    }
    if platform is not None:
        from repro.obs.profile import profile_platform

        report = profile_platform(platform)
        doc["platform"] = report.platform
        doc["total_virtual_seconds"] = report.total_time
        doc["wire"] = {"messages": report.messages, "bytes": report.wire_bytes}
        doc["engine"] = {"events_executed": report.events_executed,
                         "host_seconds": report.host_seconds,
                         "events_per_sec": report.events_per_sec}
        doc["ranks"] = [_jsonable(vars(r)) for r in report.ranks]
    return json.dumps(doc, indent=indent, sort_keys=True)


def figure_to_csv(rows: Mapping[str, Any], value_header: str = "value") -> str:
    """Render figure data (label -> value or label -> {series: value}) as
    CSV with labels in insertion order."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    items = list(rows.items())
    if items and isinstance(items[0][1], Mapping):
        series = list(items[0][1].keys())
        writer.writerow(["benchmark"] + series)
        for label, values in items:
            writer.writerow([label] + [f"{float(values[s]):.4f}" for s in series])
    else:
        writer.writerow(["benchmark", value_header])
        for label, value in items:
            writer.writerow([label, f"{float(value):.4f}"])
    return out.getvalue()


def stats_to_csv(tree: Mapping[str, Any]) -> str:
    """Flatten a statistics tree to ``scope,counter,value`` rows; a scalar
    at the top of the tree has an empty scope."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scope", "counter", "value"])
    for key, value in flatten(tree).items():
        scope, _, name = key.rpartition(".")
        try:
            writer.writerow([scope, name, f"{float(value):g}"])
        except (TypeError, ValueError):
            writer.writerow([scope, name, str(value)])
    return out.getvalue()
