"""Structured, machine-readable benchmark telemetry.

`repro.bench.experiments` prints tables; this module makes every benchmark
run leave a **comparable, versioned record** instead — the continuous-
benchmarking practice of ASV-style harnesses applied to the reproduction.
One :func:`run_suite_telemetry` call produces a JSON document
(``BENCH_<suite>.json``) holding one record per benchmark execution:

* identity — benchmark id (``<preset>/<label>``), app, params, preset,
  platform description, scale, native-binding flag, and a config
  **fingerprint** (sha256 over everything that determines the run) so a
  baseline comparison can refuse to compare apples to oranges;
* virtual-time results — total seconds, per-phase seconds, and the
  figure-label seconds this execution covers (the LU splits share one
  execution), all deterministic and therefore hard-gateable;
* engine events executed (deterministic, gated like virtual time) and, as
  facts about this one run that nothing here compares, its wall seconds
  and events/second — host time is judged by ``benchmarks/perf``;
* the critical-path compute/protocol/wire/blocked breakdown from
  :mod:`repro.obs.critical_path` (cluster-wide seconds per category).

:func:`validate_telemetry` is the schema gate used by tests and CI;
:mod:`repro.bench.baseline` compares documents and applies verdicts.
"""

from __future__ import annotations

import hashlib
import json
import platform as _host_platform
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.runners import WORKLOADS, run_app_detailed
from repro.config import ClusterConfig, preset
from repro.errors import ConfigurationError

__all__ = ["SCHEMA", "CP_CATEGORIES", "SuiteSpec", "SUITES",
           "config_fingerprint", "run_unit", "telemetry_document",
           "run_suite_telemetry", "validate_telemetry", "telemetry_to_json",
           "load_telemetry"]

#: Schema identifier; bump the suffix on breaking record changes.
#: (/2: one run per record; its host fields are optional.)
SCHEMA = "repro.bench.telemetry/2"

#: critical-path categories, mirrored from repro.obs.critical_path
CP_CATEGORIES = ("compute", "protocol", "wire", "blocked")
_CP_CATEGORIES = CP_CATEGORIES


# ------------------------------------------------------------------ suites
@dataclass
class SuiteSpec:
    """A named set of benchmark executions (preset x workload)."""

    name: str
    #: default working-set scale (1.0 = the paper's Table 1 sizes)
    scale: float
    #: (preset name, native binding) pairs to run
    presets: Tuple[Tuple[str, bool], ...]
    #: primary figure labels to execute per preset; labels sharing an
    #: execution (the LU splits) are covered by their primary ("LU all")
    labels: Tuple[str, ...]

    def unit_ids(self) -> List[str]:
        return [f"{name}/{label}" for name, _native in self.presets
                for label in self.labels]


#: Workload labels that stand for one execution each; the LU splits
#: (LU / LU core / LU bar) ride on "LU all" via its recorded phases.
_PRIMARY_LABELS = ("MatMult", "PI", "SOR opt", "SOR", "LU all",
                   "WATER 288", "WATER 343")

#: Extra figure labels each primary label's execution also covers:
#: primary label -> {figure label: phase name}.
_DERIVED_LABELS: Dict[str, Dict[str, str]] = {
    "LU all": {"LU": "no_init", "LU core": "core", "LU bar": "barrier"},
}

SUITES: Dict[str, SuiteSpec] = {
    # CI-speed suite: every platform the paper-shape gate needs, tiny
    # working sets. Full run is a few host seconds.
    "smoke": SuiteSpec(
        name="smoke", scale=0.05,
        presets=(("smp-2", False), ("sw-dsm-2", False), ("sw-dsm-4", False),
                 ("hybrid-2", False), ("hybrid-4", False),
                 ("native-jiajia-4", True)),
        labels=_PRIMARY_LABELS),
    # The paper's full working sets (minutes of host time).
    "paper": SuiteSpec(
        name="paper", scale=1.0,
        presets=(("smp-2", False), ("sw-dsm-2", False), ("sw-dsm-4", False),
                 ("hybrid-2", False), ("hybrid-4", False),
                 ("native-jiajia-4", True)),
        labels=_PRIMARY_LABELS),
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


def run_unit(preset_name: str, label: str, scale: float,
             native: bool = False,
             suite: str = "adhoc",
             overrides: Optional[Dict[str, Any]] = None,
             faults: Optional[Any] = None,
             nodes: Optional[int] = None,
             sharing: bool = False) -> Dict[str, Any]:
    """Execute one benchmark unit once and build its record.

    ``overrides`` / ``faults`` / ``nodes`` are the sweep axes of
    :mod:`repro.fabric`: machine-parameter overrides merged into the
    preset, a fault plan, and a node-count override.

    ``sharing`` additionally records sharing-pattern analytics
    (:mod:`repro.obs.sharing`) and attaches their rollup as the record's
    schema-versioned ``sharing`` field. Host-side only: virtual time,
    fingerprints, and every canonical field stay identical either way.
    """
    wl = WORKLOADS[label]
    params = wl.params(scale)
    config = _unit_config(preset_name, overrides, faults, nodes)
    config.observe = True  # critical-path breakdown; free in virtual time
    config.sharing = bool(sharing)
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
        "virtual_seconds": virtual,
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
    return record


def telemetry_document(suite: str, scale: float,
                       records: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The document envelope around a record list, stamped with the host
    that ran it (``bench update-baseline`` drops that stamp again)."""
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


def run_suite_telemetry(suite: str = "smoke", scale: Optional[float] = None,
                        only: Optional[str] = None,
                        progress: Optional[Callable[[str], None]] = None,
                        cache: Optional[Any] = None,
                        sharing: bool = False) -> Dict[str, Any]:
    """Run a named suite and return its telemetry document.

    ``only`` filters unit ids by substring (CI smoke tests run single
    units).

    ``cache`` is a duck-typed result cache (the fabric's
    :class:`repro.fabric.cache.TelemetryCache`): when given, every unit
    is looked up by its content address before running — serial runs and
    parallel sweeps share hits — and fresh records are stored back.

    ``sharing`` attaches the sharing-pattern rollup to every record (see
    :func:`run_unit`); the cache is bypassed in that mode so records with
    and without the extra field never mix under one content address.
    """
    try:
        spec = SUITES[suite]
    except KeyError:
        raise ConfigurationError(
            f"unknown suite {suite!r}; known: {sorted(SUITES)}") from None
    use_scale = spec.scale if scale is None else scale
    if sharing:
        cache = None
    records: List[Dict[str, Any]] = []
    for preset_name, native in spec.presets:
        for label in spec.labels:
            unit_id = f"{preset_name}/{label}"
            if only is not None and only not in unit_id:
                continue
            if cache is not None:
                record = cache.lookup(preset_name, label, use_scale, native,
                                      suite)
                if record is not None:
                    if progress is not None:
                        progress(f"{unit_id} [cache hit]")
                    records.append(record)
                    continue
            if progress is not None:
                progress(unit_id)
            record = run_unit(preset_name, label, use_scale, native=native,
                              suite=suite, sharing=sharing)
            if cache is not None:
                cache.store_record(record)
            records.append(record)
    return telemetry_document(suite, use_scale, records)


# ------------------------------------------------------------------ schema
_REQUIRED_RECORD_FIELDS: Dict[str, type] = {
    "id": str, "suite": str, "benchmark": str, "app": str, "preset": str,
    "platform": str, "native": bool, "verified": bool,
    "scale": (int, float), "virtual_seconds": (int, float),
    "events_executed": int,
    "params": dict, "phases": dict, "label_seconds": dict,
    "critical_path": dict, "fingerprint": str,
}


def validate_telemetry(doc: Any) -> List[str]:
    """Schema-check a telemetry document; returns a list of problems
    (empty = valid). Shallow by design — it guards the contract CI and the
    baseline store rely on, not every conceivable corruption."""
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
        for key, types in _REQUIRED_RECORD_FIELDS.items():
            if key not in rec:
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
