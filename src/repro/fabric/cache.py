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
entry files — payloads are the existing :mod:`repro.bench.telemetry`
result records, so ``bench report``, ``sweep report`` and the experiment
generator consume cached sweeps unchanged. Rerunning a sweep only
executes changed cells; a fully-unchanged grid costs zero simulation
time.

Integrity: an entry is a header line ``{"schema", "key", "sha256"}``
over the record's compact JSON, and every read checks the sha256 over
the bytes of line 2 before parsing the record from them. An entry that
fails — truncated, flipped byte, wrong key, unknown schema — is
**quarantined** (moved to ``<root>/quarantine/``, never deleted) and
reported as a miss, so a corrupt result is re-simulated rather than
trusted. :meth:`ResultCache.fsck` is ``python -m repro sweep fsck``.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.bench import telemetry
from repro.fabric.gridspec import Scenario
from repro.machine.params import fault_plan_hash, stable_digest, workload_hash

__all__ = ["CACHE_SCHEMA", "DEFAULT_CACHE_DIR", "scenario_key",
           "ResultCache", "canonical_records_json"]

#: Cache layout / compatibility version. Bump whenever the simulator's
#: cost model or the record contents change meaning: old entries become
#: unreachable instead of wrong. (v2: mandatory sha256 content checksum;
#: v3: a header line, and the seal is over the record line's bytes.)
CACHE_SCHEMA = "repro.fabric.cache/3"
#: Schemas this code once wrote: their entries are *stale*, not corrupt.
_OLDER_SCHEMAS = ("repro.fabric.cache/1", "repro.fabric.cache/2")

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = ".fabric-cache"

#: Subdirectory corrupt entries are moved into (never auto-deleted).
QUARANTINE_DIR = "quarantine"


def scenario_key(scenario: Scenario) -> str:
    """The content address of one grid cell's result.

    A record carrying the sharing rollup is addressed apart from the
    plain one; a plain cell's address does not mention sharing, so it is
    the same as before the rollup existed.
    """
    config = scenario.build_config()
    app, params = scenario.workload()
    material = {
        "schema": [CACHE_SCHEMA, telemetry.SCHEMA],
        "machine": config.params().fingerprint,
        "config": config.to_text(),
        "workload": workload_hash(app, params, scenario.scale),
        "faults": fault_plan_hash(config.faults),
        "native": bool(scenario.native),
    }
    if scenario.sharing:
        material["sharing"] = True
    return stable_digest(material)


def canonical_records_json(records: List[Dict[str, Any]]) -> str:
    """Canonical JSON of a record list (the byte-parity comparand): the
    records without their host fields (:func:`repro.bench.telemetry
    .canonical_record`), serial or parallel, today or next week."""
    return _compact([telemetry.canonical_record(r) for r in records]).decode()


def _compact(value: Any) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _read_entry(key: str, data: bytes) -> Tuple[Optional[Dict[str, Any]], str]:
    """``(record, "")`` when an entry file's bytes hold a trusted record
    for ``key``, else ``(None, reason)``. ``"stale"``, an older schema in the
    one-object layout it was written in, is unusable but never quarantined;
    a one-line header claiming an older schema can only be damage."""
    head, _, body = data.partition(b"\n")
    try:
        header, older = json.loads(head), ()
    except ValueError:
        try:    # the /1-/2 layout: one indented object over many lines
            header, older = json.loads(data), _OLDER_SCHEMAS
        except ValueError as exc:
            return None, f"not valid JSON: {exc}"
    if not isinstance(header, dict):
        return None, "entry is not a JSON object"
    schema = header.get("schema")
    if schema != CACHE_SCHEMA:
        return None, ("stale" if schema in older
                      else f"unknown schema {str(schema)[:40]!r}")
    if header.get("key") != key:
        return None, (f"key mismatch: entry claims {str(header.get('key'))[:16]}"
                      f"..., filename says {key[:16]}...")
    expected = header.get("sha256")
    if not isinstance(expected, str):
        return None, "missing sha256 checksum"
    body = body.removesuffix(b"\n")
    actual = hashlib.sha256(body).hexdigest()
    if actual != expected:
        return None, (f"checksum mismatch: stored {expected[:12]}..., "
                      f"computed {actual[:12]}...")
    try:
        record = json.loads(body)
    except ValueError as exc:
        return None, f"not valid JSON: {exc}"
    if not isinstance(record, dict):
        return None, "missing or non-object record"
    return record, ""


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
        return Path(self._path(key))

    def _path(self, key: str) -> str:   # a str: a hit skips pathlib's joins
        return f"{self.root}/{key[:2]}/{key}.json"

    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def _entries(self) -> Iterator[os.DirEntry]:
        """Every ``<shard>/<key>.json`` file; a shard is two characters."""
        try:
            shards = list(os.scandir(self.root))
        except OSError:                       # no store yet
            return
        for shard in shards:
            if len(shard.name) == 2 and shard.is_dir():
                with os.scandir(shard.path) as files:
                    yield from (f for f in files if f.name.endswith(".json"))

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
        """The verified record for ``key`` (a fresh dict, the caller's to
        edit), or None (counts hit/miss).

        Corrupt entries — unreadable JSON, checksum/key mismatch, unknown
        schema — are quarantined on sight; stale-schema entries are left
        in place (invisible, harmless); both count as misses.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                record, problem = _read_entry(key, fh.read())
        except OSError:                       # absent: the normal miss
            record, problem = None, "absent"
        if record is None:
            if problem not in ("absent", "stale"):
                self._quarantine(Path(path))
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Store a record atomically (write-temp + rename), sealed with
        its content checksum."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = _compact(record)
        header = _compact({"schema": CACHE_SCHEMA, "key": key,
                           "sha256": hashlib.sha256(body).hexdigest()})
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as fh:
            fh.write(header + b"\n" + body + b"\n")
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
        for path in sorted(Path(f.path) for f in self._entries()):
            report["checked"] += 1
            try:
                _, problem = _read_entry(path.stem, path.read_bytes())
            except OSError as exc:  # pragma: no cover — evicted mid-walk
                problem = f"unreadable: {exc}"
            if not problem:
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
        try:
            with os.scandir(self.quarantine_dir()) as files:
                return sum(1 for f in files if f.is_file())
        except OSError:                       # nothing quarantined yet
            return 0

    def stats(self) -> Dict[str, Any]:
        """Cache effectiveness as a first-class number.

        ``hits`` / ``misses`` / ``stores`` count this instance's traffic;
        ``entries``, ``bytes`` (the evictable on-disk footprint), and
        ``quarantined`` (corrupt entries moved aside, by any producer)
        are measured from the store itself.
        """
        entries = size = 0
        for entry in self._entries():
            entries += 1
            try:
                size += entry.stat().st_size
            except OSError:  # pragma: no cover — entry evicted mid-walk
                pass
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "entries": entries, "bytes": size,
                "quarantined": self._quarantine_count(),
                "root": str(self.root)}

    def clear(self) -> int:
        """Delete every entry (quarantine untouched); returns the count."""
        entries = list(self._entries())
        for entry in entries:
            os.unlink(entry.path)
        return len(entries)

