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
from repro.bench.runners import CLAIMS, UNDECIDED, shape_gate
from repro.bench.telemetry import FIELDS, SEMANTIC
from tests.conftest import on_threads

_SCENARIOS = {sc.id: sc for sc in diffcheck.scenarios()}
#: The rows of tier-1: every row up to 64 nodes (CI checks every row).
_TIER1 = [sid for sid, sc in sorted(_SCENARIOS.items())
          if getattr(sc, "nodes", 0) <= 64]
#: The rows checked again with every generator body driven on a backing
#: thread: every figure cell and chaos plan (not the scaling rows, whose
#: hundreds of processes would each need an OS thread).
_ON_THREADS = [sid for sid, sc in sorted(_SCENARIOS.items())
                if not getattr(sc, "nodes", 0)]


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
    """The full store decides every claim it has inputs for (every claim
    over presets' label times), and each holds or fails as excepted."""
    rows = [row for sid, row in goldens["rows"].items()
            if sid.startswith("fig/")]
    presets = {row["preset"] for row in rows}
    checks = shape_gate(rows)
    decided = [claim.key for claim, check in zip(CLAIMS, checks)
               if check.status != UNDECIDED]
    assert decided == [claim.key for claim in CLAIMS
                       if set(claim.inputs) <= presets]
    assert len(decided) == 11
    assert all(c.passed for c in checks if c.status != UNDECIDED), \
        [c.describe() for c in checks]


@pytest.mark.parametrize("scenario_id", _TIER1)
def test_scenario_bit_identical(scenario_id, goldens):
    """Every scenario reproduces its stored row bit for bit."""
    problems = diffcheck.check_scenario(_SCENARIOS[scenario_id], goldens)
    assert problems == []


@pytest.mark.parametrize("scenario_id", _ON_THREADS)
def test_scenario_bit_identical_on_threads(scenario_id, goldens):
    """Every body driven on a backing thread (:meth:`SimProcess.drive`, the
    baton hand-off and the thread ``"self"`` fast path) reproduces the same
    stored row bit for bit: crash cleanup, retransmission timing and the
    typed chaos outcome included."""
    with on_threads():
        problems = diffcheck.check_scenario(_SCENARIOS[scenario_id], goldens)
    assert problems == []


def test_thread_rows_run_every_body_on_a_thread():
    """The check above is not vacuous: under ``on_threads`` no body of a
    figure cell runs stackless; the ranks run to completion, the message
    servers stay parked as daemons."""
    with on_threads() as started:
        diffcheck.capture(_SCENARIOS["fig/sw-dsm-2/PI"])
    assert started and not any(p.stackless for p in started)
    assert sorted(p.name for p in started if not p.daemon) \
        == ["spmd.r0", "spmd.r1"]
    assert not any(p.alive for p in started if not p.daemon)
