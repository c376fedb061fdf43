"""Structured, machine-readable benchmark telemetry.

`repro.bench.experiments` prints tables; this module makes every benchmark
run leave a **comparable, versioned record** instead. :func:`run_unit`
builds one record per benchmark execution; a sweep
(:func:`repro.fabric.run_sweep`, behind ``bench run``, ``bench scaling``
and ``sweep run``) wraps its records in one JSON document
(:func:`telemetry_document`, ``BENCH_<suite>.json``). A record holds:

* identity — benchmark id (``<preset>/<label>``; a sweep renames it to
  the cell id, ``<preset>/<label>@<scale>``), app, params, preset,
  platform description, scale, native-binding flag, and a config
  **fingerprint** (sha256 over everything that determines the run);
* the run's outcome — verified flag and result checksum;
* virtual-time results — ``virtual_seconds`` (the app's timed region,
  ``phases["total"]``), per-phase seconds, the figure-label seconds this
  execution covers (the LU splits share one execution) and
  ``end_seconds``, the engine clock at exit (setup and verification
  included);
* engine events executed and, as facts about this one run that nothing
  compares, its wall seconds and events/second — host time is judged by
  ``benchmarks/perf``;
* the critical-path compute/protocol/wire/blocked breakdown from
  :mod:`repro.obs.critical_path` (cluster-wide seconds per category).

:data:`FIELDS` declares every field a record may carry, once, as
*semantic* (a fact about the simulation: bit-exact in the golden store)
or *host* (a fact about the machine: stripped before a record is stored
or compared). The schema gate (:func:`validate_telemetry`), the fabric's
canonical form, and the golden checker (:mod:`repro.bench.diffcheck`)
all read it.
"""

from __future__ import annotations

import hashlib
import json
import platform as _host_platform
import re
import sys
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.bench.runners import WORKLOADS, run_app_detailed
from repro.config import ClusterConfig, preset
from repro.errors import ConfigurationError

__all__ = ["SCHEMA", "CP_CATEGORIES", "SEMANTIC", "HOST", "Field", "FIELDS",
           "HOST_FIELDS", "canonical_record", "config_fingerprint",
           "stream_digest", "trace_digest", "run_unit", "telemetry_document",
           "validate_telemetry", "telemetry_to_json", "load_telemetry"]

#: Schema identifier; bump the suffix on breaking record changes.
#: (/2: one run per record; its host fields are optional. /3: checksum
#: and end_seconds.)
SCHEMA = "repro.bench.telemetry/3"

#: critical-path categories, mirrored from repro.obs.critical_path
CP_CATEGORIES = ("compute", "protocol", "wire", "blocked")
_CP_CATEGORIES = CP_CATEGORIES


# ------------------------------------------------------------------ fields
SEMANTIC = "semantic"
HOST = "host"
_NUM = (int, float)


@dataclass(frozen=True)
class Field:
    """One record field: its class, its JSON type, and whether every
    telemetry record carries it."""

    kind: str                       # SEMANTIC (bit-exact) | HOST (stripped)
    types: Any
    required: bool = True


#: Every field a record may carry, declared once. Telemetry records carry
#: the required ones; golden rows add the trace digest, scaling rows their
#: curve identity, chaos rows their plan and counters.
FIELDS: Dict[str, Field] = {
    "id": Field(SEMANTIC, str),
    "suite": Field(SEMANTIC, str),
    "benchmark": Field(SEMANTIC, str),
    "app": Field(SEMANTIC, str),
    "params": Field(SEMANTIC, dict),
    "preset": Field(SEMANTIC, str),
    "platform": Field(SEMANTIC, str),
    "native": Field(SEMANTIC, bool),
    "scale": Field(SEMANTIC, _NUM),
    "fingerprint": Field(SEMANTIC, str),
    "verified": Field(SEMANTIC, bool),
    "checksum": Field(SEMANTIC, _NUM),
    "virtual_seconds": Field(SEMANTIC, _NUM),
    "end_seconds": Field(SEMANTIC, _NUM),
    "phases": Field(SEMANTIC, dict),
    "label_seconds": Field(SEMANTIC, dict),
    "events_executed": Field(SEMANTIC, int),
    "critical_path": Field(SEMANTIC, dict),
    "sharing": Field(SEMANTIC, dict, required=False),
    "digest": Field(SEMANTIC, str, required=False),
    "trace_events": Field(SEMANTIC, int, required=False),
    "fabric": Field(SEMANTIC, str, required=False),
    "nodes": Field(SEMANTIC, int, required=False),
    "plan": Field(SEMANTIC, dict, required=False),
    "outcome": Field(SEMANTIC, str, required=False),
    "faults": Field(SEMANTIC, dict, required=False),
    "messaging": Field(SEMANTIC, dict, required=False),
    "host_seconds": Field(HOST, _NUM, required=False),
    "events_per_sec": Field(HOST, _NUM, required=False),
}

#: Fields that vary with the machine, not with the simulated behaviour.
HOST_FIELDS: Tuple[str, ...] = tuple(
    name for name, f in FIELDS.items() if f.kind == HOST)


def canonical_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """``record`` without its host fields.

    Two executions of the same cell — serial or parallel, today or next
    week, on any machine — produce identical canonical forms; only
    wall-clock noise is stripped. The golden store holds rows in this
    form, and the sweep fabric states its parity contract over it.
    """
    return {k: v for k, v in record.items() if k not in HOST_FIELDS}


# ------------------------------------------------------------- labels
#: Extra figure labels each primary label's execution also covers:
#: primary label -> {figure label: phase name}.
_DERIVED_LABELS: Dict[str, Dict[str, str]] = {
    "LU all": {"LU": "no_init", "LU core": "core", "LU bar": "barrier"},
}


# ------------------------------------------------------------- fingerprint
def config_fingerprint(config: ClusterConfig, app: str,
                       params: Dict[str, Any], scale: float,
                       native: bool) -> str:
    """sha256 over everything that determines a run's virtual-time result.

    Built from the config's canonical text form plus the fields that text
    omits (call_overhead), the app, its parameters, the scale, and the
    binding — two records compare cleanly iff their fingerprints match.
    """
    material = json.dumps({
        "config": config.to_text(),
        "call_overhead": config.call_overhead,
        "app": app,
        "params": {k: params[k] for k in sorted(params)},
        "scale": scale,
        "native": bool(native),
    }, sort_keys=True)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


# ------------------------------------------------------------------- units
def _unit_config(preset_name: str, overrides: Optional[Dict[str, Any]] = None,
                 faults: Optional[Any] = None,
                 nodes: Optional[int] = None) -> ClusterConfig:
    """A fresh config for one unit, with the sweep axes applied.

    The same construction is used for running and for identity (the
    fingerprint below and the fabric's content address), so overrides,
    fault plans, and node counts can never silently fall out of a
    record's identity.
    """
    config = preset(preset_name)
    if nodes is not None:
        if nodes < 1:
            raise ConfigurationError(f"need at least one node, got {nodes}")
        config.nodes = nodes
    if overrides:
        config.param_overrides.update(overrides)
    if faults is not None:
        config.faults = faults
    return config


_PID_RE = re.compile(r"#\d+")


def _event_line(ev: Any) -> str:
    fields = ";".join(f"{k}={ev.fields[k]!r}" for k in sorted(ev.fields))
    return f"{ev.kind}|{ev.time!r}|{fields}"


def stream_digest(events: Iterable[Any]) -> Tuple[str, int]:
    """sha256 over a trace stream (kind, timestamp, sorted fields), with
    ``#pid`` tokens renumbered to first-appearance order. Returns
    ``(hexdigest, event_count)``.

    Process ids embedded in ``name#pid`` strings come from an
    interpreter-wide counter, so two runs hash equal iff their event
    streams are identical modulo that consistent renumbering."""
    mapping: Dict[str, str] = {}
    h = hashlib.sha256()
    count = 0
    for ev in events:
        line = _PID_RE.sub(
            lambda m: mapping.setdefault(m.group(0), f"#{len(mapping)}"),
            _event_line(ev))
        h.update(line.encode("utf-8"))
        h.update(b"\n")
        count += 1
    return h.hexdigest(), count


def trace_digest(plat: Any) -> Tuple[str, int]:
    """:func:`stream_digest` of a traced run, ``obs.span`` events excluded
    so the digest is that of an unobserved run."""
    return stream_digest(ev for ev in plat.engine.trace.events
                         if ev.kind != "obs.span")


def run_unit(preset_name: str, label: str, scale: float,
             native: bool = False,
             suite: str = "adhoc",
             overrides: Optional[Dict[str, Any]] = None,
             faults: Optional[Any] = None,
             nodes: Optional[int] = None,
             sharing: bool = False,
             trace: bool = False) -> Dict[str, Any]:
    """Execute one benchmark unit once and return its record.

    The one record function: sweeps and the golden checker
    (:mod:`repro.bench.diffcheck`) all build their records here.
    ``overrides`` / ``faults`` / ``nodes`` are the sweep axes of
    :mod:`repro.fabric`: machine-parameter overrides merged into the
    preset, a fault plan, and a node-count override.

    ``sharing`` additionally records sharing-pattern analytics
    (:mod:`repro.obs.sharing`) and attaches their rollup as the record's
    schema-versioned ``sharing`` field. Host-side only: virtual time,
    fingerprints, and every other semantic field stay identical either way.

    ``trace`` records the engine's trace stream and adds its
    ``digest`` / ``trace_events`` (:func:`trace_digest`) to the record.
    Sweeps leave it off: tracing costs host time on every cell.
    """
    wl = WORKLOADS[label]
    params = wl.params(scale)
    config = _unit_config(preset_name, overrides, faults, nodes)
    config.observe = True  # critical-path breakdown; free in virtual time
    config.sharing = bool(sharing)
    config.trace = bool(trace)
    merged, plat = run_app_detailed(config, wl.app, native=native, **params)
    virtual = merged.phases["total"]
    events = plat.engine.events_executed
    host_seconds = plat.engine.host_seconds

    label_seconds = {label: virtual}
    for derived, phase in _DERIVED_LABELS.get(label, {}).items():
        if phase in merged.phases:
            label_seconds[derived] = merged.phases[phase]

    from repro.obs import critical_path_report

    cp = critical_path_report(plat)
    breakdown = {cat: round(val, 12) for cat, val in cp.totals().items()}

    record: Dict[str, Any] = {
        "id": f"{preset_name}/{label}",
        "suite": suite,
        "benchmark": label,
        "app": wl.app,
        "params": {k: params[k] for k in sorted(params)},
        "preset": preset_name,
        "platform": plat.hamster.platform_description(),
        "native": bool(native),
        "scale": scale,
        "verified": bool(merged.verified),
        "checksum": merged.checksum,
        "virtual_seconds": virtual,
        "end_seconds": plat.engine.now,
        "phases": {k: merged.phases[k] for k in sorted(merged.phases)},
        "label_seconds": label_seconds,
        "events_executed": int(events),
        "host_seconds": host_seconds,
        "events_per_sec": (events / host_seconds if host_seconds > 0 else 0.0),
        "critical_path": breakdown,
        "fingerprint": config_fingerprint(
            _unit_config(preset_name, overrides, faults, nodes), wl.app,
            params, scale, native),
    }
    if sharing and plat.sharing is not None:
        from repro.obs import sharing_summary

        record["sharing"] = sharing_summary(plat.sharing)
    if trace:
        record["digest"], record["trace_events"] = trace_digest(plat)
    return record


def telemetry_document(suite: str, scale: float,
                       records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The document envelope around a record list, stamped with the host
    that ran it."""
    return {
        "schema": SCHEMA,
        "suite": suite,
        "scale": scale,
        "host": {
            "python": sys.version.split()[0],
            "machine": _host_platform.machine(),
            "system": _host_platform.system(),
        },
        "records": records,
    }


# ------------------------------------------------------------------ schema
def validate_telemetry(doc: Any) -> List[str]:
    """Schema-check a telemetry document; returns a list of problems
    (empty = valid). Shallow by design — it guards the contract CI and the
    sweep fabric rely on, not every conceivable corruption."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get("suite"), str) or not doc.get("suite"):
        errors.append("suite must be a non-empty string")
    if not isinstance(doc.get("scale"), (int, float)) or doc.get("scale", 0) <= 0:
        errors.append("scale must be a positive number")
    records = doc.get("records")
    if not isinstance(records, list) or not records:
        errors.append("records must be a non-empty list")
        return errors
    seen_ids: set = set()
    for i, rec in enumerate(records):
        where = f"records[{i}]"
        if not isinstance(rec, dict):
            errors.append(f"{where} is not an object")
            continue
        for key, spec in FIELDS.items():
            types = spec.types
            if key not in rec:
                if spec.required:
                    errors.append(f"{where} missing field {key!r}")
            elif not isinstance(rec[key], types) or (
                    types is int and isinstance(rec[key], bool)):
                errors.append(f"{where}.{key} has wrong type "
                              f"{type(rec[key]).__name__}")
        rid = rec.get("id")
        if isinstance(rid, str):
            if rid in seen_ids:
                errors.append(f"{where} duplicate id {rid!r}")
            seen_ids.add(rid)
        if isinstance(rec.get("virtual_seconds"), (int, float)) \
                and rec["virtual_seconds"] < 0:
            errors.append(f"{where}.virtual_seconds is negative")
        fp = rec.get("fingerprint")
        if isinstance(fp, str) and (len(fp) != 64
                                    or any(c not in "0123456789abcdef" for c in fp)):
            errors.append(f"{where}.fingerprint is not a sha256 hex digest")
        cp = rec.get("critical_path")
        if isinstance(cp, dict):
            unknown = set(cp) - set(_CP_CATEGORIES)
            if unknown:
                errors.append(f"{where}.critical_path has unknown "
                              f"categories {sorted(unknown)}")
            for cat, val in cp.items():
                if not isinstance(val, (int, float)) or val < 0:
                    errors.append(f"{where}.critical_path.{cat} must be a "
                                  "non-negative number")
        for dict_field in ("phases", "label_seconds"):
            values = rec.get(dict_field)
            if isinstance(values, dict):
                for k, v in values.items():
                    if not isinstance(v, (int, float)):
                        errors.append(f"{where}.{dict_field}[{k!r}] is not "
                                      "a number")
        if "sharing" in rec:
            errors.extend(_validate_sharing_field(rec["sharing"], where))
    return errors


def _validate_sharing_field(sh: Any, where: str) -> List[str]:
    """Check a record's optional schema-versioned ``sharing`` rollup."""
    from repro.obs.diagnose import SHARING_SCHEMA

    errors: List[str] = []
    if not isinstance(sh, dict):
        return [f"{where}.sharing is not an object"]
    if sh.get("schema") != SHARING_SCHEMA:
        errors.append(f"{where}.sharing.schema must be {SHARING_SCHEMA!r}, "
                      f"got {sh.get('schema')!r}")
    for key in ("ping_pong_pages", "false_sharing_pages"):
        if not isinstance(sh.get(key), int) or sh.get(key, 0) < 0:
            errors.append(f"{where}.sharing.{key} must be a "
                          "non-negative integer")
    for key in ("top_hot_page_fault_rate_hz", "barrier_max_skew_s"):
        val = sh.get(key)
        if not isinstance(val, (int, float)) or isinstance(val, bool) \
                or val < 0:
            errors.append(f"{where}.sharing.{key} must be a "
                          "non-negative number")
    if not isinstance(sh.get("false_sharing_ranges"), list):
        errors.append(f"{where}.sharing.false_sharing_ranges must be a list")
    return errors


# ---------------------------------------------------------------------- io
def telemetry_to_json(doc: Dict[str, Any], indent: int = 2) -> str:
    """Serialize with stable key order so document diffs are meaningful."""
    return json.dumps(doc, indent=indent, sort_keys=True) + "\n"


def load_telemetry(path: str, validate: bool = True) -> Dict[str, Any]:
    """Load a telemetry document from disk, schema-checking by default."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if validate:
        errors = validate_telemetry(doc)
        if errors:
            raise ValueError(
                f"invalid telemetry document {path}: " + "; ".join(errors[:5]))
    return doc
