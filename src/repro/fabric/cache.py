"""Content-addressed result cache.

Every grid cell has one stable content address composed from the three
identity hashes of :mod:`repro.machine.params` plus the code-schema
version:

* ``MachineParams.fingerprint`` — the machine's cost constants (override
  composition included: the fingerprint is taken over the *final* params
  the cell builds, so an overridden field changes the address),
* the config's canonical text form — platform, DSM, nodes, messaging,
* :func:`~repro.machine.params.workload_hash` — app + working set + scale,
* :func:`~repro.machine.params.fault_plan_hash` — the fault plan,
* :data:`CACHE_SCHEMA` + the telemetry schema — bump either and every
  stored result is invisible (never silently reused across code changes).

The store itself (:class:`ResultCache`) is a plain sharded directory of
JSON files — payloads are the existing :mod:`repro.bench.telemetry`
result records, so ``bench compare``, the baseline gates, and the report
generator consume cached sweeps unchanged. Rerunning a sweep only
executes changed cells; a fully-unchanged grid costs zero simulation
time.

Integrity: every entry carries a sha256 **content checksum** over its
record, verified on every read. An entry that fails verification —
truncated file, flipped byte, wrong key under the filename — is
**quarantined** (moved to ``<root>/quarantine/``, never deleted: the
evidence survives for post-mortems) and reported as a miss, so a
corrupt result is re-simulated rather than trusted. :meth:`ResultCache.fsck`
is the offline scanner behind ``python -m repro sweep fsck``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.fabric.gridspec import Scenario
from repro.machine.params import fault_plan_hash, stable_digest, workload_hash

__all__ = ["CACHE_SCHEMA", "DEFAULT_CACHE_DIR", "scenario_key",
           "ResultCache", "TelemetryCache", "canonical_record",
           "canonical_records_json"]

#: Cache layout / compatibility version. Bump whenever the simulator's
#: cost model or the record contents change meaning: old entries become
#: unreachable instead of wrong. (v2: mandatory sha256 content checksum.)
CACHE_SCHEMA = "repro.fabric.cache/2"

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = ".fabric-cache"

#: Subdirectory corrupt entries are moved into (never auto-deleted).
QUARANTINE_DIR = "quarantine"

#: Shard-level glob matching real entries but not the quarantine dir
#: (shards are the first two hex chars of the sha256 key).
_SHARD_GLOB = "??/*.json"

#: Record fields that vary with the host, not the simulated behaviour.
#: Everything else in a record is deterministic given the cell identity.
_HOST_FIELDS = ("host_seconds", "events_per_sec")


def scenario_key(scenario: Scenario) -> str:
    """The content address of one grid cell's result."""
    from repro.bench.telemetry import SCHEMA as TELEMETRY_SCHEMA

    config = scenario.build_config()
    app, params = scenario.workload()
    return stable_digest({
        "schema": [CACHE_SCHEMA, TELEMETRY_SCHEMA],
        "machine": config.params().fingerprint,
        "config": config.to_text(),
        "workload": workload_hash(app, params, scenario.scale),
        "faults": fault_plan_hash(config.faults),
        "native": bool(scenario.native),
    })


def canonical_record(record: Dict[str, Any]) -> Dict[str, Any]:
    """A record with host-varying fields removed.

    Two executions of the same cell — serial or parallel, today or next
    week — produce byte-identical canonical forms; only wall-clock noise
    is stripped. The parity tests and the sweep determinism contract are
    stated over this form.
    """
    return {k: v for k, v in record.items() if k not in _HOST_FIELDS}


def canonical_records_json(records: List[Dict[str, Any]]) -> str:
    """Canonical JSON of a record list (the byte-parity comparand)."""
    return json.dumps([canonical_record(r) for r in records],
                      sort_keys=True, separators=(",", ":"))


def _record_checksum(record: Dict[str, Any]) -> str:
    """sha256 over the record's canonical JSON — the integrity seal."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _verify_entry(key: str, entry: Any) -> Optional[str]:
    """Why ``entry`` cannot be trusted for ``key``, or None if it can.

    A *stale* entry (older schema version) is reported distinctly: it is
    unusable but not corrupt, so ``get`` skips it silently and ``fsck``
    counts it without quarantining.
    """
    if not isinstance(entry, dict):
        return "entry is not a JSON object"
    if entry.get("schema") != CACHE_SCHEMA:
        return "stale"
    if entry.get("key") != key:
        return (f"key mismatch: entry claims "
                f"{str(entry.get('key'))[:16]}..., filename says "
                f"{key[:16]}...")
    if not isinstance(entry.get("record"), dict):
        return "missing or non-object record"
    expected = entry.get("sha256")
    if not isinstance(expected, str):
        return "missing sha256 checksum"
    actual = _record_checksum(entry["record"])
    if actual != expected:
        return (f"checksum mismatch: stored {expected[:12]}..., "
                f"computed {actual[:12]}...")
    return None


class ResultCache:
    """Sharded directory of ``<key[:2]>/<key>.json`` result entries.

    Every read is checksum-verified; entries that fail are moved to
    ``<root>/quarantine/`` and treated as misses (see module docstring).
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: entries this instance quarantined (on-disk total is in stats())
        self.quarantined = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob(_SHARD_GLOB))

    # ----------------------------------------------------------- integrity
    def _quarantine(self, path: Path) -> Optional[Path]:
        """Move a corrupt entry aside; returns its new home (or None if
        the move lost a race with another process)."""
        qdir = self.quarantine_dir()
        qdir.mkdir(parents=True, exist_ok=True)
        dest = qdir / path.name
        n = 0
        while dest.exists():    # keep every piece of evidence
            n += 1
            dest = qdir / f"{path.name}.{n}"
        try:
            os.replace(path, dest)
        except OSError:  # pragma: no cover — concurrent quarantine/evict
            return None
        self.quarantined += 1
        return dest

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The verified record for ``key``, or None (counts hit/miss).

        Corrupt entries — unreadable JSON, checksum/key mismatch — are
        quarantined on sight; stale-schema entries are left in place
        (invisible, harmless); both count as misses.
        """
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = json.load(fh)
        except OSError:
            self.misses += 1                  # absent: the normal miss
            return None
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(path)            # truncated / garbled file
            self.misses += 1
            return None
        problem = _verify_entry(key, entry)
        if problem == "stale":
            self.misses += 1
            return None
        if problem is not None:
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return entry["record"]

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Store a record atomically (write-temp + rename), sealed with
        its content checksum."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {"schema": CACHE_SCHEMA, "key": key,
                 "sha256": _record_checksum(record), "record": record}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        self.stores += 1

    def fsck(self, repair: bool = False) -> Dict[str, Any]:
        """Scan every entry, verify checksums, optionally quarantine.

        Returns ``{"checked", "ok", "stale", "corrupt": [{"path",
        "reason"}...], "quarantined": [paths moved], "quarantine_entries":
        on-disk quarantine count}``. With ``repair=False`` nothing is
        touched; with ``repair=True`` corrupt entries move to the
        quarantine directory (stale entries are left alone either way).
        """
        report: Dict[str, Any] = {"checked": 0, "ok": 0, "stale": 0,
                                  "corrupt": [], "quarantined": [],
                                  "root": str(self.root)}
        if self.root.exists():
            for path in sorted(self.root.glob(_SHARD_GLOB)):
                report["checked"] += 1
                key = path.stem
                try:
                    with open(path, "r", encoding="utf-8") as fh:
                        entry = json.load(fh)
                except OSError as exc:  # pragma: no cover — evicted mid-walk
                    report["corrupt"].append({"path": str(path),
                                              "reason": f"unreadable: {exc}"})
                    continue
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    entry, problem = None, f"not valid JSON: {exc}"
                else:
                    problem = _verify_entry(key, entry)
                if problem is None:
                    report["ok"] += 1
                elif problem == "stale":
                    report["stale"] += 1
                else:
                    report["corrupt"].append({"path": str(path),
                                              "reason": problem})
                    if repair:
                        moved = self._quarantine(path)
                        if moved is not None:
                            report["quarantined"].append(str(moved))
        report["quarantine_entries"] = self._quarantine_count()
        return report

    def _quarantine_count(self) -> int:
        qdir = self.quarantine_dir()
        if not qdir.exists():
            return 0
        return sum(1 for p in qdir.iterdir() if p.is_file())

    def stats(self) -> Dict[str, Any]:
        """Cache effectiveness as a first-class number.

        ``hits`` / ``misses`` / ``stores`` count this instance's traffic;
        ``entries``, ``bytes`` (the evictable on-disk footprint), and
        ``quarantined`` (corrupt entries moved aside, by any producer)
        are measured from the store itself.
        """
        entries = 0
        size = 0
        if self.root.exists():
            for path in self.root.glob(_SHARD_GLOB):
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:  # pragma: no cover — entry evicted mid-walk
                    pass
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "entries": entries, "bytes": size,
                "quarantined": self._quarantine_count(),
                "root": str(self.root)}

    def clear(self) -> int:
        """Delete every entry (quarantine untouched); returns the count."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.glob(_SHARD_GLOB):
            path.unlink()
            removed += 1
        return removed


class TelemetryCache:
    """Adapter giving serial ``bench run`` the same cache sweeps use.

    :func:`repro.bench.telemetry.run_suite_telemetry` takes this
    duck-typed object (telemetry never imports the fabric); the key is
    derived through :func:`scenario_key`, so a cell executed by a sweep
    is a hit for the serial path and vice versa.
    """

    def __init__(self, store: ResultCache) -> None:
        self.store = store

    def key_for(self, preset_name: str, label: str, scale: float,
                native: bool) -> str:
        return scenario_key(Scenario(preset=preset_name, label=label,
                                     scale=scale, native=native))

    def lookup(self, preset_name: str, label: str, scale: float,
               native: bool, suite: str) -> Optional[Dict[str, Any]]:
        record = self.store.get(self.key_for(preset_name, label, scale, native))
        if record is None:
            return None
        record = dict(record)
        # Rename to the requesting context: the cached copy may have been
        # produced under a sweep's cell id and suite name.
        record["id"] = f"{preset_name}/{label}"
        record["suite"] = suite
        return record

    def store_record(self, record: Dict[str, Any]) -> None:
        self.store.put(self.key_for(record["preset"], record["benchmark"],
                                    record["scale"], record["native"]),
                       record)
