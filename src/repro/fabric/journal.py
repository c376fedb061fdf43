"""The sweep log: one append-only journal, a sweep's only durable record.

A sweep given a journal appends every fact it has — a cell reached a
state, a worker came or went, the session ended — to one
``journal.jsonl`` through one writer (:class:`SweepJournal`), and every
consumer reads it back through one reader (:func:`replay_journal`):
``sweep resume`` takes the committed outcomes, ``sweep status`` the
per-cell table (:meth:`JournalState.manifest`) and the per-worker rollup
(:class:`repro.obs.fleet.FleetReport`), ``sweep report`` the fleet JSON
and Chrome trace. A resumed sweep appends to the log it crashed in, so
one file holds every session. ``docs/fabric.md`` has the table of lines.

Line 1 is a **header** carrying everything resume needs::

    {"schema": "repro.fabric.journal/2", "suite": ..., "cells": N,
     "workers": W, "cache_dir": ..., "grid": {...GridSpec.to_dict()...}}

Every following line is stamped with ``t``, host seconds on the writer's
one monotonic clock (a resumed journal continues from the last ``t`` it
holds), and is one of:

* ``{"t", "kind": <one of EVENT_KINDS>, "cell"?, "id"?, "key"?,
  "worker"?, "data"?}`` — a **lifecycle** line, flushed but not fsync'd:
  losing the tail costs nothing but narration;
* ``{"t", "kind": "commit", "cell": i, "outcome": {...CellOutcome...}}``
  — written when a cell's result is safely in the cache, flushed **and
  fsync'd** before the scheduler moves on: the durability boundary;
* ``{"t", "kind": "status", "status": "complete" | "interrupted" |
  "aborted"}`` — the session's terminal state, fsync'd.

:func:`replay_journal` is deliberately forgiving about the two ways a
crash can mangle the file — a **torn trailing line** is dropped (which
also makes reading a *live* journal safe) and **duplicate commit
records** for one cell resolve last-one-wins — and deliberately strict
about everything else: mid-file garbage or a foreign header (the ``/1``
format included) raises :class:`JournalError`, because silently skipping
interior corruption could resurrect a cell state the sweep never
reached. Lines that parse but break the schema do not stop a resume —
commit records are all it trusts — but are listed in
:attr:`JournalState.problems`, which :func:`validate_journal`, ``sweep
status`` and ``sweep report`` refuse to overlook.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.fabric.manifest import CellOutcome, SweepManifest

__all__ = ["JOURNAL_SCHEMA", "EVENT_KINDS", "JournalError", "SweepJournal",
           "JournalState", "replay_journal", "validate_journal"]

JOURNAL_SCHEMA = "repro.fabric.journal/2"

#: The closed set of lifecycle kinds. Cell lifecycle: enqueued ->
#: dispatched -> started -> (heartbeat)* -> done | failed | retried (back
#: to dispatched); cache-hit cells skip execution entirely. Worker
#: lifecycle: spawn -> (kill | death) -> respawn -> ... -> exit.
EVENT_KINDS = (
    "sweep-begin", "sweep-end",
    "enqueued", "cache-hit", "dispatched", "started", "heartbeat",
    "done", "failed", "retried",
    "worker-spawn", "worker-kill", "worker-death", "worker-respawn",
    "worker-exit",
)

#: Lifecycle kinds that must carry a ``cell`` grid index.
_CELL_KINDS = frozenset({"enqueued", "cache-hit", "dispatched", "started",
                         "heartbeat", "done", "failed", "retried"})

#: Lifecycle kinds that must carry a ``worker`` id.
_WORKER_KINDS = frozenset({"worker-spawn", "worker-kill", "worker-death",
                           "worker-respawn", "worker-exit"})

#: Terminal sweep states a journal may record.
SWEEP_STATUSES = ("complete", "interrupted", "aborted")


class JournalError(ValueError):
    """A journal that cannot be trusted (foreign schema, interior
    corruption, or a grid mismatch on resume)."""


class SweepJournal:
    """Append-only writer for one sweep's journal.

    Use the constructor for a fresh sweep (truncates, writes the
    header) and :meth:`resume` to continue an interrupted journal
    (repairs a torn trailing line, then appends — the single header
    stays line 1 forever, and the clock picks up where the log stopped).
    """

    def __init__(self, path: str, header: Optional[Dict[str, Any]] = None,
                 _resumed: Optional["JournalState"] = None) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if _resumed is not None:
            self.header = _resumed.header
            self._last_t = _resumed.elapsed
            self._fh = open(self.path, "a", encoding="utf-8")
        else:
            self.header = dict(header or {})
            self.header.setdefault("schema", JOURNAL_SCHEMA)
            self.header.setdefault("wall_time",
                                   time.strftime("%Y-%m-%dT%H:%M:%S%z"))
            self._last_t = 0.0
            self._fh = open(self.path, "w", encoding="utf-8")
            self._append(self.header, sync=True)
        self._t0 = time.monotonic() - self._last_t

    @classmethod
    def resume(cls, path: str) -> "SweepJournal":
        """Reopen an interrupted journal for appending.

        A torn trailing line (partial write at the moment of death) is
        truncated away first, so the next entry starts on a clean line.
        """
        state = replay_journal(path)      # validates header + interior
        if state.torn_bytes is not None:
            with open(path, "r+b") as fh:
                fh.truncate(state.torn_bytes)
        return cls(path, _resumed=state)

    # ------------------------------------------------------------- writes
    def _append(self, entry: Dict[str, Any], sync: bool = False) -> None:
        """The one place a line reaches the file: always flushed (a
        concurrent reader never waits on a buffer), fsync'd on request."""
        self._fh.write(json.dumps(entry, sort_keys=True,
                                  separators=(",", ":")) + "\n")
        self._fh.flush()
        if sync:
            os.fsync(self._fh.fileno())

    def _stamped(self, kind: str, **fields: Any) -> Dict[str, Any]:
        # Clamp to the last stamp: one writer, one clock, so the whole
        # log is non-decreasing by construction, across sessions too.
        self._last_t = max(time.monotonic() - self._t0, self._last_t)
        return {"t": round(self._last_t, 6), "kind": kind, **fields}

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one lifecycle line (flushed, not fsync'd). ``fields``
        are ``cell`` / ``id`` / ``key`` / ``worker`` / ``data``; ``None``
        values are left out."""
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown lifecycle kind {kind!r}")
        self._append(self._stamped(kind, **{
            k: v for k, v in fields.items() if v is not None}))

    def transition(self, cell: int, state: str, **fields: Any) -> None:
        """A cell's lifecycle line, cell first (``benchmarks/perf`` times
        this spelling as ``fabric.journal_append_us``)."""
        self.emit(state, cell=int(cell), **fields)

    def commit(self, outcome: CellOutcome, sync: bool = True) -> None:
        """Record a cell's final outcome durably (flush + fsync).

        ``sync=False`` defers the fsync — used by the bulk cache-hit
        scan, which writes hundreds of commits and fsyncs once via
        :meth:`sync` instead of once per line.
        """
        self._append(self._stamped("commit", cell=outcome.index,
                                   outcome=outcome.to_dict()), sync=sync)

    def status(self, status: str) -> None:
        """Record the sweep's terminal state (fsync'd)."""
        if status not in SWEEP_STATUSES:
            raise ValueError(f"unknown sweep status {status!r}")
        self._append(self._stamped("status", status=status), sync=True)

    def sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    # -------------------------------------------------------------- close
    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


@dataclass
class JournalState:
    """Everything :func:`replay_journal` reconstructs from a journal."""

    header: Dict[str, Any]
    #: committed cell outcomes by grid index (duplicates: last wins)
    committed: Dict[int, CellOutcome] = field(default_factory=dict)
    #: last recorded terminal status, or None for a killed or live sweep
    status: Optional[str] = None
    #: byte offset to truncate to when a torn trailing line was found
    #: (None = the file ended cleanly)
    torn_bytes: Optional[int] = None
    #: every lifecycle line, in file order (narration, not state)
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: schema problems in lines that parsed (empty = a valid log)
    problems: List[str] = field(default_factory=list)
    #: the last ``t`` the log holds: host seconds over all its sessions
    elapsed: float = 0.0

    @property
    def transitions(self) -> int:
        """Count of lifecycle lines."""
        return len(self.events)

    def pending(self, total: int) -> List[int]:
        """Grid indices with no commit record — the resume worklist."""
        return [i for i in range(total) if i not in self.committed]

    def counts(self) -> Dict[str, int]:
        """Committed outcomes tallied by kind."""
        out: Dict[str, int] = {}
        for oc in self.committed.values():
            out[oc.outcome] = out.get(oc.outcome, 0) + 1
        return out

    def sweep_end(self) -> Dict[str, Any]:
        """Payload of the last ``sweep-end`` line ({} while none exists):
        the finished session's counts, status and cache statistics."""
        for ev in reversed(self.events):
            if ev["kind"] == "sweep-end":
                return ev.get("data") or {}
        return {}

    def manifest(self) -> SweepManifest:
        """The per-cell view: each cell once, by its commit record; a
        cell without one is ``pending`` (named by its ``enqueued`` line
        when the log got that far)."""
        named = {ev.get("cell"): ev for ev in self.events
                 if ev["kind"] == "enqueued"}
        cells = []
        for i in range(int(self.header.get("cells", 0))):
            oc = self.committed.get(i)
            if oc is None:
                ev = named.get(i, {})
                oc = CellOutcome(index=i, id=ev.get("id", f"cell {i}"),
                                 key=ev.get("key", ""), outcome="pending",
                                 attempts=0)
            cells.append(oc)
        return SweepManifest(
            suite=str(self.header.get("suite", "sweep")),
            workers=int(self.header.get("workers", 0)), cells=cells,
            elapsed=self.elapsed, cache=self.sweep_end().get("cache"),
            status=self.status or "in flight")


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_lifecycle(ev: Dict[str, Any]) -> List[str]:
    """Per-kind required fields of one lifecycle line."""
    kind = ev["kind"]
    errors = []
    if kind in _CELL_KINDS and not _is_count(ev.get("cell")):
        errors.append(f"({kind}): 'cell' must be a non-negative grid index")
    if kind in _WORKER_KINDS and not isinstance(ev.get("worker"), int):
        errors.append(f"({kind}): 'worker' must be an int id")
    if kind == "heartbeat":
        data = ev.get("data")
        if not isinstance(data, dict):
            errors.append("(heartbeat): missing 'data'")
        else:
            errors.extend(f"(heartbeat): data.{name} must be a number"
                          for name in ("events_executed", "virtual_seconds")
                          if not _is_number(data.get(name)))
    if kind == "failed" and not isinstance(ev.get("data", {}), dict):
        errors.append("(failed): 'data' must be an object")
    return errors


def replay_journal(source: Union[str, List[str]]) -> JournalState:
    """Rebuild a sweep's state from its journal — the one reader.

    ``source`` is a file path or the log's lines. Replay is **idempotent
    and prefix-consistent**: any prefix of a valid journal yields a
    state whose committed set is a subset of the full replay's,
    duplicate commit records collapse last-one-wins, and a torn final
    line is dropped (its byte offset is reported so a resuming writer
    can truncate it). A missing/foreign header or a corrupt *interior*
    line raises :class:`JournalError`; lines that parse but break the
    schema are listed in :attr:`JournalState.problems`.
    """
    if isinstance(source, str):
        path = source
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise JournalError(f"cannot read journal: {exc}") from None
    else:
        path = "<lines>"
        data = "".join(line.rstrip("\n") + "\n" for line in source).encode()
    lines: List[bytes] = data.split(b"\n")
    # data ending in "\n" leaves a final empty chunk; a non-empty final
    # chunk is a line with no newline — torn by definition.
    torn_tail = lines[-1] if lines[-1] else None
    lines = lines[:-1]
    if not lines:
        raise JournalError(f"{path}: empty journal (no header line)")
    try:
        header = json.loads(lines[0])
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise JournalError(f"{path}: header is not valid JSON: {exc}") \
            from None
    if not isinstance(header, dict) or header.get("schema") != JOURNAL_SCHEMA:
        raise JournalError(
            f"{path}: journal schema must be {JOURNAL_SCHEMA!r}, "
            f"got {header.get('schema') if isinstance(header, dict) else header!r}")
    state = JournalState(header=header)
    problems = state.problems
    if not isinstance(header.get("suite"), str) or not header.get("suite"):
        problems.append("header.suite must be a non-empty string")
    problems.extend(f"header.{name} must be a non-negative int"
                    for name in ("cells", "workers")
                    if not _is_count(header.get(name)))
    if torn_tail is not None:
        state.torn_bytes = len(data) - len(torn_tail)
    for n, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            entry = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            if n == len(lines) and torn_tail is None:
                # Final complete-looking line that does not parse: the
                # newline landed but the payload did not — still a torn
                # tail. Truncate from the start of this line.
                state.torn_bytes = len(data) - (len(raw) + 1)
                break
            raise JournalError(
                f"{path}: line {n}: corrupt journal entry: {exc}") from None
        if not isinstance(entry, dict):
            raise JournalError(f"{path}: line {n}: entry must be an object")
        kind = entry.get("kind")
        if kind == "commit":
            try:
                outcome = CellOutcome.from_dict(entry["outcome"])
            except (KeyError, TypeError, ValueError) as exc:
                raise JournalError(
                    f"{path}: line {n}: bad commit record: {exc}") from None
            state.committed[outcome.index] = outcome
        elif kind == "status":
            state.status = entry.get("status")
        elif kind in EVENT_KINDS:
            state.events.append(entry)
            problems.extend(f"line {n} {err}"
                            for err in _check_lifecycle(entry))
        else:
            problems.append(f"line {n}: unknown kind {kind!r}")
            continue
        t = entry.get("t")
        if _is_number(t) and t >= 0:
            if t < state.elapsed:
                problems.append(f"line {n}: timestamp went backwards "
                                f"({t} < {state.elapsed})")
            state.elapsed = max(state.elapsed, float(t))
        elif kind in EVENT_KINDS:   # a commit's stamp is only a courtesy
            problems.append(f"line {n}: 't' must be a non-negative number")
    if not any(ev["kind"] == "sweep-begin" for ev in state.events):
        problems.append("log has no 'sweep-begin' line (header-only: the "
                        "sweep never started, or this is not a sweep log)")
    return state


def validate_journal(source: Union[str, List[str]]) -> List[str]:
    """Schema-check a journal from outside the program; returns a list
    of problems (empty = valid). A log :func:`replay_journal` refuses is
    reported as its one :class:`JournalError` message."""
    try:
        return replay_journal(source).problems
    except JournalError as exc:
        return [str(exc)]
