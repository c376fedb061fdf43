"""No NumPy scalar reaches the engine clock or a trace field.

A NumPy count that flows into a message size or a hold turns the clock
into ``np.float64``: every time stays equal, but NumPy >= 2 prints such a
value as ``np.float64(...)``, so digests and printed results change on one
NumPy version and not on another. This runs one traced golden row per
substrate, plus a chaos plan, and checks the types themselves, so a leak
fails here under any NumPy version.
"""

import numpy as np
import pytest

from repro.bench import diffcheck
from repro.config import ClusterConfig
from repro.dsm.jiajia import protocol

ROWS = ["fig/sw-dsm-4/SOR", "fig/native-jiajia-4/SOR", "fig/hybrid-4/SOR",
        "fig/smp-2/SOR", "chaos/sw-dsm-2/pi-seed77"]
#: rows whose SOR pages are diffed (the JiaJia substrate, remote homes)
DIFFING = {"fig/sw-dsm-4/SOR", "fig/native-jiajia-4/SOR"}


def numpy_scalars(value, path="fields"):
    """Where ``value`` (nested dicts, lists, tuples) holds a NumPy scalar."""
    if isinstance(value, np.generic):
        return [f"{path}: {value!r}"]
    if isinstance(value, dict):
        return [hit for k, v in value.items()
                for hit in numpy_scalars(v, f"{path}[{k!r}]")]
    if isinstance(value, (list, tuple)):
        return [hit for i, v in enumerate(value)
                for hit in numpy_scalars(v, f"{path}[{i}]")]
    return []


@pytest.fixture
def observed(monkeypatch):
    """Record every built platform and every diff the protocol makes,
    applies and sizes."""
    seen = {"platforms": [], "diffs": [], "sizes": [], "written": []}
    build = ClusterConfig.build
    make, apply, size = (protocol.make_diff, protocol.apply_diff,
                         protocol.diff_wire_size)

    def built(self):
        plat = build(self)
        seen["platforms"].append(plat)
        return plat

    def made(*args):
        diff = make(*args)
        seen["diffs"].append(diff)
        return diff

    def applied(*args):
        written = apply(*args)
        seen["written"].append(written)
        return written

    def sized(diff):
        n = size(diff)
        seen["sizes"].append(n)
        return n

    monkeypatch.setattr(ClusterConfig, "build", built)
    monkeypatch.setattr(protocol, "make_diff", made)
    monkeypatch.setattr(protocol, "apply_diff", applied)
    monkeypatch.setattr(protocol, "diff_wire_size", sized)
    return seen


@pytest.mark.parametrize("row", ROWS)
def test_clock_and_trace_fields_stay_python_numbers(row, observed):
    (sc,) = [sc for sc in diffcheck.scenarios() if sc.id == row]
    record = diffcheck.capture(sc)
    assert record["verified"]
    (plat,) = observed["platforms"]
    assert type(plat.engine.now) is float
    assert type(record["end_seconds"]) is float
    if row in DIFFING:
        assert observed["diffs"] and observed["sizes"] and observed["written"]
    for d in observed["diffs"]:
        assert type(d.changed_bytes) is int and type(d.n_runs) is int
    assert all(type(n) is int for n in observed["sizes"])
    assert all(type(n) is int for n in observed["written"])
    events = list(plat.engine.trace.events)
    assert events
    leaks = [f"{ev.kind} @ {ev.time!r}" for ev in events
             if type(ev.time) is not float]
    leaks += [f"{ev.kind} {hit}" for ev in events
              for hit in numpy_scalars(ev.fields)]
    assert not leaks, leaks[:5]
