"""Golden-run snapshot tests — the store's bit-exact checker, in-tree.

Every Fig 2–4 cell, every scaling point up to 64 nodes (the 256- and
1024-node rows run in CI's ``diffcheck`` job) and every chaos scenario
must reproduce its stored row bit for bit: virtual times, event counts,
trace digests, result checksums, critical paths. A failure here means a
scheduler or cost-path change altered *simulated* behaviour — host-side
optimizations are expected to leave every semantic field untouched. See
docs/performance.md for how to investigate a failure and when
re-recording (``python -m repro.bench.diffcheck --record``) is
legitimate.
"""

from __future__ import annotations

import pytest

from repro.bench import diffcheck
from repro.bench.runners import shape_gate
from repro.bench.telemetry import FIELDS, SEMANTIC

_SCENARIOS = {sc.id: sc for sc in diffcheck.scenarios()}
#: (row, backend) pairs of tier-1: every row up to 64 nodes, the scaling
#: rows on the generator backend only (CI checks every row on both).
_TIER1 = [(sid, procs) for sid, sc in sorted(_SCENARIOS.items())
          for procs in ("thread", "generator")
          if getattr(sc, "nodes", 0) <= (0 if procs == "thread" else 64)]


@pytest.fixture(scope="module")
def goldens():
    return diffcheck.load_goldens()


def test_every_scenario_has_a_golden(goldens):
    """One row per scenario, and no row without one: the store holds no
    stale row and every field it holds is declared semantic."""
    assert sorted(goldens["rows"]) == sorted(_SCENARIOS), "run --record"
    assert {k for row in goldens["rows"].values() for k in row} \
        <= {k for k, f in FIELDS.items() if f.kind == SEMANTIC}


def test_stored_figure_rows_hold_the_paper_shape(goldens):
    rows = [row for sid, row in goldens["rows"].items()
            if sid.startswith("fig/")]
    checks = shape_gate(rows)
    assert len(checks) == 5
    assert all(c.passed for c in checks), [c.describe() for c in checks]


@pytest.mark.parametrize("scenario_id,procs", _TIER1)
def test_scenario_bit_identical(scenario_id, procs, goldens):
    """Every scenario, under BOTH process backends, against the same
    stored rows: the continuation scheduler must reproduce the
    thread-era virtual-time behaviour bit for bit."""
    problems = diffcheck.check_scenario(_SCENARIOS[scenario_id], goldens,
                                        procs=procs)
    assert problems == []


@pytest.mark.parametrize("scenario_id",
                         [sid for sid in sorted(_SCENARIOS)
                          if sid.startswith("chaos/")])
def test_chaos_dual_run_thread_vs_generator(scenario_id):
    """Fault plans replay identically on both process backends: crash
    cleanup, retransmission timing, and the typed outcome included."""
    sc = _SCENARIOS[scenario_id]
    ref = diffcheck.capture(sc, procs="thread")
    new = diffcheck.capture(sc, procs="generator")
    assert diffcheck.diff_records(new, ref) == []


def test_figure_dual_procs_spot():
    """One figure scenario through both process backends in one invocation
    (the full --dual-procs sweep over every row runs in CI)."""
    sc = _SCENARIOS["fig/sw-dsm-2/PI"]
    ref = diffcheck.capture(sc, procs="thread")
    new = diffcheck.capture(sc, procs="generator")
    assert diffcheck.diff_records(new, ref) == []
